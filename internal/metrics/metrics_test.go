package metrics

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func snapshotByName(snaps []Snapshot) map[string]Snapshot {
	m := make(map[string]Snapshot, len(snaps))
	for _, s := range snaps {
		m[s.Name] = s
	}
	return m
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	r := New()
	c1 := r.Counter("c", "1", "a counter")
	c2 := r.Counter("c", "1", "a counter")
	if c1 != c2 {
		t.Fatal("re-registering a counter returned a different handle")
	}
	g1 := r.Gauge("g", "bytes", "a gauge")
	if g2 := r.Gauge("g", "bytes", "a gauge"); g1 != g2 {
		t.Fatal("re-registering a gauge returned a different handle")
	}
	h1 := r.Histogram("h", "ns", "a histogram")
	if h2 := r.Histogram("h", "ns", "a histogram"); h1 != h2 {
		t.Fatal("re-registering a histogram returned a different handle")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := New()
	r.Counter("m", "1", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering one name as two kinds did not panic")
		}
	}()
	r.Gauge("m", "1", "")
}

// TestConcurrentIncrements hammers one counter, gauge, and histogram from
// many goroutines; run under -race this is the registry's thread-safety
// proof, and the totals prove no increment was lost.
func TestConcurrentIncrements(t *testing.T) {
	r := New()
	c := r.Counter("c", "1", "")
	g := r.Gauge("g", "1", "")
	h := r.Histogram("h", "ns", "")
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(int64(i%1000 + 1))
			}
		}(w)
	}
	wg.Wait()
	if got := c.Load(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := g.Load(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

// TestHistogramBucketBoundaries pins the log2 bucket rule: bucket i holds
// (2^(i-1), 2^i], with v <= 1 in bucket 0 and the overflow bucket
// absorbing the huge tail.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v      int64
		bucket int
	}{
		{-5, 0}, {0, 0}, {1, 0},
		{2, 1},
		{3, 2}, {4, 2},
		{5, 3}, {8, 3},
		{9, 4},
		{1024, 10}, {1025, 11},
		{1 << 40, 40}, {1<<40 + 1, 41},
		{1 << 62, 62},
		{1<<62 + 1, 63}, {1<<63 - 1, 63},
	}
	for _, c := range cases {
		if got := histBucketFor(c.v); got != c.bucket {
			t.Errorf("histBucketFor(%d) = %d, want %d", c.v, got, c.bucket)
		}
	}
	// A fresh histogram's snapshot reflects exactly the buckets observed.
	r := New()
	h := r.Histogram("h", "ns", "")
	h.Observe(1)
	h.Observe(2)
	h.Observe(1024)
	s := snapshotByName(r.Snapshot())["h"]
	if s.Buckets[0] != 1 || s.Buckets[1] != 1 || s.Buckets[10] != 1 {
		t.Errorf("buckets = %v..., want 1 each at indices 0, 1, 10", s.Buckets[:12])
	}
	if s.Count != 3 || s.Sum != 1027 {
		t.Errorf("count/sum = %d/%d, want 3/1027", s.Count, s.Sum)
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := New()
	h := r.Histogram("h", "ns", "")
	for i := 0; i < 90; i++ {
		h.Observe(100) // bucket 7, bound 128
	}
	for i := 0; i < 10; i++ {
		h.Observe(100000) // bucket 17, bound 131072
	}
	s := snapshotByName(r.Snapshot())["h"]
	if got := s.Quantile(0.5); got != 128 {
		t.Errorf("p50 = %d, want 128", got)
	}
	if got := s.Quantile(0.99); got != 131072 {
		t.Errorf("p99 = %d, want 131072", got)
	}
	if got := (Snapshot{}).Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %d, want 0", got)
	}
}

// TestSnapshotIsolation proves a snapshot is a copy: metric activity after
// the snapshot must not leak into it, bucket slices included.
func TestSnapshotIsolation(t *testing.T) {
	r := New()
	c := r.Counter("c", "1", "")
	h := r.Histogram("h", "ns", "")
	c.Add(5)
	h.Observe(7)
	snap := snapshotByName(r.Snapshot())
	c.Add(100)
	h.Observe(7)
	h.Observe(1 << 30)
	if got := snap["c"].Value; got != 5 {
		t.Errorf("snapshot counter = %d, want 5 (mutated after capture)", got)
	}
	hs := snap["h"]
	if hs.Count != 1 || hs.Sum != 7 {
		t.Errorf("snapshot histogram count/sum = %d/%d, want 1/7", hs.Count, hs.Sum)
	}
	if hs.Buckets[3] != 1 {
		t.Errorf("snapshot bucket[3] = %d, want 1", hs.Buckets[3])
	}
	if hs.Buckets[30] != 0 {
		t.Errorf("snapshot bucket[30] = %d, want 0 (observed after capture)", hs.Buckets[30])
	}
}

func TestFuncMetricsAndDiff(t *testing.T) {
	r := New()
	var v int64
	r.CounterFunc("fc", "1", "", func() int64 { return v })
	r.GaugeFunc("fg", "1", "", func() int64 { return v * 2 })
	c := r.Counter("c", "1", "")
	h := r.Histogram("h", "ns", "")

	v = 10
	c.Add(3)
	h.Observe(100)
	before := r.Snapshot()

	v = 25
	c.Add(4)
	h.Observe(100)
	h.Observe(200)
	d := snapshotByName(Diff(before, r.Snapshot()))

	if got := d["fc"].Value; got != 15 {
		t.Errorf("diffed func counter = %d, want 15", got)
	}
	if got := d["fg"].Value; got != 50 {
		t.Errorf("diffed gauge = %d, want the after level 50", got)
	}
	if got := d["c"].Value; got != 4 {
		t.Errorf("diffed counter = %d, want 4", got)
	}
	if hd := d["h"]; hd.Count != 2 || hd.Sum != 300 {
		t.Errorf("diffed histogram count/sum = %d/%d, want 2/300", hd.Count, hd.Sum)
	}
}

func TestWriteText(t *testing.T) {
	r := New()
	r.Counter(`jbs_test_sent_total{backend="tcp"}`, "bytes", "bytes sent").Add(42)
	r.Counter(`jbs_test_sent_total{backend="rdma"}`, "bytes", "bytes sent").Add(7)
	r.Gauge("jbs_test_depth", "reqs", "queue depth").Set(3)
	h := r.Histogram("jbs_test_lat_ns", "ns", "latency")
	h.Observe(100)
	h.Observe(1 << 62)

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE jbs_test_sent_total counter",
		`jbs_test_sent_total{backend="tcp"} 42`,
		`jbs_test_sent_total{backend="rdma"} 7`,
		"# TYPE jbs_test_depth gauge",
		"jbs_test_depth 3",
		"# TYPE jbs_test_lat_ns histogram",
		`jbs_test_lat_ns_bucket{le="128"} 1`,
		`jbs_test_lat_ns_bucket{le="+Inf"} 2`,
		"jbs_test_lat_ns_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text export missing %q in:\n%s", want, out)
		}
	}
	// The shared base name's HELP/TYPE header must appear exactly once.
	if n := strings.Count(out, "# TYPE jbs_test_sent_total counter"); n != 1 {
		t.Errorf("TYPE header emitted %d times, want 1", n)
	}
}

func TestSnapshotSorted(t *testing.T) {
	r := New()
	r.Counter("zzz", "1", "")
	r.Counter("aaa", "1", "")
	r.Counter("mmm", "1", "")
	snaps := r.Snapshot()
	for i := 1; i < len(snaps); i++ {
		if snaps[i-1].Name > snaps[i].Name {
			t.Fatalf("snapshot not sorted: %q before %q", snaps[i-1].Name, snaps[i].Name)
		}
	}
}

func TestDefaultRegistryShared(t *testing.T) {
	name := fmt.Sprintf("jbs_test_default_%p", t) // unique per run, harmless residue
	c := Default().Counter(name, "1", "")
	c.Inc()
	if got := snapshotByName(Default().Snapshot())[name].Value; got != 1 {
		t.Errorf("default registry counter = %d, want 1", got)
	}
}

// TestMirrorMovesItsGauge: every change to a Mirror reaches its gauge —
// Add as a delta, so mirrors sharing one gauge sum into it, Set as a
// value — and a Mirror without a gauge keeps its value all the same.
func TestMirrorMovesItsGauge(t *testing.T) {
	var g Gauge
	a, b := NewMirror(&g), NewMirror(&g)
	a.Add(3)
	b.Add(2)
	a.Add(-1)
	if a.Load() != 2 || b.Load() != 2 || g.Load() != 4 {
		t.Fatalf("after Adds: a=%d b=%d gauge=%d, want 2 2 4", a.Load(), b.Load(), g.Load())
	}
	a.Set(7)
	if a.Load() != 7 || g.Load() != 7 {
		t.Fatalf("after Set: a=%d gauge=%d, want 7 7", a.Load(), g.Load())
	}
	var bare Mirror
	bare.Add(5)
	bare.Set(bare.Load() - 1)
	if bare.Load() != 4 {
		t.Fatalf("unmirrored value = %d, want 4", bare.Load())
	}
}
