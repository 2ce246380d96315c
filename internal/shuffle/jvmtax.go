// Package shuffle provides the two ShuffleProvider implementations the
// paper compares: the stock Hadoop HTTP shuffle (HttpServlets serving
// serialized read-then-transmit, MOFCopier threads per ReduceTask, spill
// merger) and JBS (MOFSupplier + NetMerger over the portable transport,
// network-levitated merger).
package shuffle

import (
	"io"
	"time"
)

// JVMTax throttles a byte stream to a fixed rate, standing in for the
// JVM's stream-stack overhead (Section II-B: Java streams deliver ~3.1x
// slower disk reads and ~3.4x slower shuffling than native C). The
// functional engine applies it to the baseline's data path so the relative
// JBS-vs-Hadoop behaviour is observable on real code; the cluster
// simulator applies the same factors analytically at testbed scale.
type JVMTax struct {
	// BytesPerSecond caps throughput; zero disables the tax.
	BytesPerSecond float64
	// Sleep replaces the wall-clock wait when non-nil, so the tax model is
	// testable (and simulatable) without real delays. Nil means time.Sleep.
	Sleep func(time.Duration)
}

// Reader wraps r with the tax.
func (j JVMTax) Reader(r io.Reader) io.Reader {
	if j.BytesPerSecond <= 0 {
		return r
	}
	sleep := j.Sleep
	if sleep == nil {
		sleep = time.Sleep // the real wall clock; tests inject a fake
	}
	return &taxedReader{r: r, rate: j.BytesPerSecond, sleep: sleep}
}

type taxedReader struct {
	r     io.Reader
	rate  float64
	sleep func(time.Duration)
	debt  time.Duration
}

func (t *taxedReader) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if n > 0 {
		t.debt += time.Duration(float64(n) / t.rate * float64(time.Second))
		// Sleep in coarse slices so tiny reads accumulate debt instead of
		// issuing sub-millisecond sleeps.
		if t.debt >= time.Millisecond {
			t.sleep(t.debt)
			t.debt = 0
		}
	}
	return n, err
}
