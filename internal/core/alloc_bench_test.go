package core

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/flow"
	"repro/internal/mof"
	"repro/internal/transport"
)

// buildBenchMOF writes one MOF with parts segments of roughly segBytes each
// and returns its paths and total payload size.
func buildBenchMOF(b *testing.B, dir, task string, parts, segBytes int) (string, string, int64) {
	b.Helper()
	data := filepath.Join(dir, task+".data")
	index := filepath.Join(dir, task+".index")
	w, err := mof.NewWriter(data, index, parts)
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, 256)
	for i := range val {
		val[i] = byte(i)
	}
	var total int64
	for p := 0; p < parts; p++ {
		if err := w.BeginSegment(p); err != nil {
			b.Fatal(err)
		}
		for written := 0; written < segBytes; {
			key := fmt.Sprintf("%s-p%d-k%08d", task, p, written)
			if err := w.Append([]byte(key), val); err != nil {
				b.Fatal(err)
			}
			n := len(key) + len(val) + 2
			written += n
			total += int64(n)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	return data, index, total
}

// BenchmarkSegmentFetchPath measures the supplier→merger hot path on real
// TCP sockets: one iteration fetches every segment of the fixture once.
// allocs/op is the headline number — the pooled data path's target is
// steady-state fetches without per-frame or per-segment allocation. The
// "hot" variant serves from a warm DataCache; "cold" sizes the cache below
// the working set so every fetch takes the disk path.
// The "hot-hedged" variant runs with the hedging controller armed but
// never racing (the one replica is the primary itself, so a fetch past
// its threshold finds no one to race): the scanner walks the pending set
// every tick and every completion feeds the RTT ring, so this is the
// steady-state cost of carrying the controller — it must stay inside the same allocs/op budget as the
// plain hot path (TestSegmentFetchPathAllocationPins holds the numbers).
func BenchmarkSegmentFetchPath(b *testing.B) {
	b.Run("hot", func(b *testing.B) { benchSegmentFetchPath(b, 64<<20, false) })
	b.Run("hot-hedged", func(b *testing.B) { benchSegmentFetchPath(b, 64<<20, true) })
	b.Run("cold", func(b *testing.B) { benchSegmentFetchPath(b, 256<<10, false) })
}

// TestSegmentFetchPathAllocationPins turns the benchmark's headline number
// into a gate. One op is a Fetch of 16 two-chunk segments; what is left is
// per Fetch call and per fetch (the result channel, the pendingFetch, the
// supplier's request record), nothing per chunk or per byte. The pins
// were 42 / 42 / 65 while every segment was reassembled in a fresh heap
// buffer; they move down when an allocation goes away, never up.
func TestSegmentFetchPathAllocationPins(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("allocation counts need the plain build and a second per case")
	}
	for _, tc := range []struct {
		name   string
		cache  int64
		hedged bool
		pin    int64
	}{
		{"hot", 64 << 20, false, 24},
		{"hot-hedged", 64 << 20, true, 24},
		{"cold", 256 << 10, false, 41},
	} {
		res := testing.Benchmark(func(b *testing.B) { benchSegmentFetchPath(b, tc.cache, tc.hedged) })
		t.Logf("%s: %d allocs/op, %d B/op", tc.name, res.AllocsPerOp(), res.AllocedBytesPerOp())
		if got := res.AllocsPerOp(); got > tc.pin {
			t.Errorf("%s: %d allocs/op, pinned at %d", tc.name, got, tc.pin)
		}
	}
}

func benchSegmentFetchPath(b *testing.B, cacheBytes int64, hedged bool) {
	const tasks, parts, segBytes = 4, 4, 128 << 10
	bufpool.PoisonReleased(false) // TestMain's test-only memset per release is not the product's cost
	defer bufpool.PoisonReleased(true)
	dir := b.TempDir()
	paths := map[string][2]string{}
	var total int64
	for i := 0; i < tasks; i++ {
		task := fmt.Sprintf("m-%03d", i)
		data, index, n := buildBenchMOF(b, dir, task, parts, segBytes)
		paths[task] = [2]string{data, index}
		total += n
	}
	lookup := func(task string) (string, string, error) {
		p, ok := paths[task]
		if !ok {
			return "", "", fmt.Errorf("no MOF %s", task)
		}
		return p[0], p[1], nil
	}
	tr := transport.NewTCP()
	s, err := NewMOFSupplier(SupplierConfig{
		Transport:      tr,
		Addr:           "127.0.0.1:0",
		DataCacheBytes: cacheBytes,
	}, lookup)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	mc := MergerConfig{Transport: tr}
	if hedged {
		// Armed, never racing: the replica set is the primary alone, so a
		// fetch past its threshold is marked hedged without a duplicate.
		// The set is built once, so a trip allocates nothing either.
		replicas := []string{s.Addr()}
		mc.Replicas = func(FetchSpec) []string { return replicas }
		mc.Hedge = &flow.HedgeConfig{Baseline: 10 * time.Second}
	}
	m, err := NewNetMerger(mc)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()

	var specs []FetchSpec
	for task := range paths {
		for p := 0; p < parts; p++ {
			specs = append(specs, FetchSpec{Addr: s.Addr(), MapTask: task, Partition: p})
		}
	}
	var sink int64
	deliver := func(spec FetchSpec, data []byte) error {
		sink += int64(len(data))
		return nil
	}
	// Warm the caches so the measured loop is the steady state.
	if err := m.Fetch(specs, deliver); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(total)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Fetch(specs, deliver); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if sink == 0 {
		b.Fatal("no bytes fetched")
	}
}
