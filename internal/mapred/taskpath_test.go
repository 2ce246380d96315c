package mapred

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// attemptCounters strips what belongs to the job's faults and not to its
// data from a run's counters, leaving what a fault-free run must equal.
func attemptCounters(c Counters) Counters {
	c.TaskRetries, c.SpeculativeLaunches, c.SpeculativeWins = 0, 0, 0
	c.LocalMapTasks, c.RemoteMapTasks = 0, 0 // a backup runs on another node
	return c
}

// TestCountersOfUncommittedAttemptsAreDropped runs one job fault-free, with
// a straggling primary whose speculative twin commits first (both attempts
// finish), and with a reducer that fails half-way through its first
// attempt: the attempts that did not commit must leave the data counters
// exactly as the fault-free run has them.
func TestCountersOfUncommittedAttemptsAreDropped(t *testing.T) {
	const input = "a b c\nb c d\nc d e\n"
	run := func(t *testing.T, configure func(*Cluster, *Job)) Counters {
		fs, c := testCluster(t, 2, 1024)
		putFile(t, fs, "/in", input)
		job := wordCountJob("/in", "/out", 1)
		configure(c, job)
		res, err := c.Run(job)
		if err != nil {
			t.Fatal(err)
		}
		if got := parseCounts(t, catOutputs(t, fs, res)); got["c"] != 3 || len(got) != 5 {
			t.Fatalf("wrong output: %v", got)
		}
		return res.Counters
	}
	want := run(t, func(*Cluster, *Job) {})
	if want.MapInputRecords != 3 || want.MapOutputRecords != 9 || want.OutputRecords != 5 || want.ShuffledSegments != 1 {
		t.Fatalf("fault-free counters: %+v", want)
	}

	t.Run("speculative-loser", func(t *testing.T) {
		got := run(t, func(c *Cluster, job *Job) {
			c.cfg.Speculative = true
			c.cfg.SpeculativeDelay = 20 * time.Millisecond
			var calls atomic.Int64
			inner := job.Map
			job.Map = func(k, v []byte, emit Emit) error {
				if calls.Add(1) == 1 {
					time.Sleep(200 * time.Millisecond) // the primary straggles, then finishes
				}
				return inner(k, v, emit)
			}
		})
		if got.SpeculativeWins != 1 {
			t.Fatalf("the backup did not win: %+v", got)
		}
		if attemptCounters(got) != attemptCounters(want) {
			t.Fatalf("counters with a losing attempt:\n got %+v\nwant %+v", got, want)
		}
	})

	t.Run("retried-reducer", func(t *testing.T) {
		got := run(t, func(c *Cluster, job *Job) {
			c.cfg.MaxTaskAttempts = 2
			var calls atomic.Int64
			inner := job.Reduce
			job.Reduce = func(k []byte, vs [][]byte, emit Emit) error {
				if calls.Add(1) == 3 {
					return fmt.Errorf("transient reduce failure after two groups")
				}
				return inner(k, vs, emit)
			}
		})
		if got.TaskRetries != 1 {
			t.Fatalf("retries = %d, want 1", got.TaskRetries)
		}
		if attemptCounters(got) != attemptCounters(want) {
			t.Fatalf("counters with a retried reducer:\n got %+v\nwant %+v", got, want)
		}
	})

	t.Run("retried-map", func(t *testing.T) {
		got := run(t, func(c *Cluster, job *Job) {
			c.cfg.MaxTaskAttempts = 2
			var calls atomic.Int64
			inner := job.Map
			job.Map = func(k, v []byte, emit Emit) error {
				if calls.Add(1) == 2 {
					return fmt.Errorf("transient map failure after one record")
				}
				return inner(k, v, emit)
			}
		})
		if attemptCounters(got) != attemptCounters(want) {
			t.Fatalf("counters with a retried map task:\n got %+v\nwant %+v", got, want)
		}
	})
}

// TestLineReadersHaveNoLineLimit feeds both line formats a 200 KiB line (a
// posting list fed to a second stage), longer than any buffer on the way,
// between two short ones.
func TestLineReadersHaveNoLineLimit(t *testing.T) {
	long := strings.Repeat("doc-0123,", 200<<10/9)
	input := "short\tfirst\n" + "key\t" + long + "\r\n" + "last"
	t.Run("line", func(t *testing.T) {
		rr := LineInput(strings.NewReader(input))
		for i, want := range []string{"short\tfirst", "key\t" + long, "last"} {
			k, v, err := rr.Next()
			if err != nil {
				t.Fatalf("line %d: %v", i, err)
			}
			if string(k) != fmt.Sprint(i) || string(v) != want {
				t.Fatalf("line %d: key %q, value of %d bytes, want %d", i, k, len(v), len(want))
			}
		}
		if _, _, err := rr.Next(); err != io.EOF {
			t.Fatalf("err = %v, want EOF", err)
		}
	})
	t.Run("kvline", func(t *testing.T) {
		rr := KVLineInput(strings.NewReader(input))
		for i, want := range [][2]string{{"short", "first"}, {"key", long}, {"last", ""}} {
			k, v, err := rr.Next()
			if err != nil {
				t.Fatalf("line %d: %v", i, err)
			}
			if string(k) != want[0] || string(v) != want[1] {
				t.Fatalf("line %d: key %q, value of %d bytes, want %q and %d", i, k, len(v), want[0], len(want[1]))
			}
		}
		if _, _, err := rr.Next(); err != io.EOF {
			t.Fatalf("err = %v, want EOF", err)
		}
	})
	t.Run("job", func(t *testing.T) {
		fs, c := testCluster(t, 1, 1<<20)
		putFile(t, fs, "/in", input)
		res, err := c.Run(&Job{
			Name: "longline", Input: "/in", Output: "/out", NumReducers: 1,
			InputFormat: KVLineInput,
			Map:         func(k, v []byte, emit Emit) error { emit(k, v); return nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := "key\t" + long + "\nlast\t\nshort\tfirst\n"; catOutputs(t, fs, res) != want {
			t.Fatal("a job over a 200 KiB line lost or changed it")
		}
	})
}

// TestPrefixOrderEqualsKeyOrder sorts adversarial keys through the writer's
// entries and requires bytes.Compare order with equal keys in emit order:
// keys that share their first seven and eight bytes, keys shorter than the
// prefix that differ only in trailing zero bytes, the empty key, and keys
// that differ only after the prefix.
func TestPrefixOrderEqualsKeyOrder(t *testing.T) {
	keys := [][]byte{
		{}, {0}, {0, 0}, {0, 0, 0, 0, 0, 0, 0}, {0, 0, 0, 0, 0, 0, 0, 0}, {0, 0, 0, 0, 0, 0, 0, 0, 0},
		[]byte("a"), []byte("a\x00"), []byte("a\x00\x00"), []byte("a\x00\x00\x00\x00\x00\x00"), []byte("a\x00\x00\x00\x00\x00\x00\x00"),
		[]byte("a\x00\x00\x00\x00\x00\x00\x01"), []byte("a\x01"), []byte("ab"),
		[]byte("sharedp"), []byte("sharedp\x00"), []byte("sharedpr"), []byte("sharedpre"), []byte("sharedprefix-1"),
		[]byte("sharedprefix-2"), []byte("sharedprefix-10"), []byte("sharedprefix-"), []byte("sharedpreFIX"),
		{0xff}, {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0},
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ { // random keys over a two-letter alphabet collide in every way
		k := make([]byte, rng.Intn(12))
		for j := range k {
			k[j] = byte(rng.Intn(2))
		}
		keys = append(keys, k)
	}
	type rec struct {
		key []byte
		seq int
	}
	var emitted []rec
	w := newSortWriter(writerConfig{partitions: 1, dir: t.TempDir(), taskID: "t"})
	for round := 0; round < 3; round++ { // every key three times: equal keys must keep emit order
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		for _, k := range keys {
			seq := len(emitted)
			emitted = append(emitted, rec{k, seq})
			if err := w.Add(0, k, []byte(fmt.Sprint(seq))); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := slices.Clone(emitted)
	slices.SortStableFunc(want, func(a, b rec) int { return bytes.Compare(a.key, b.key) })
	got := w.sorted()[0]
	if len(got) != len(want) {
		t.Fatalf("%d entries, want %d", len(got), len(want))
	}
	for i, e := range got {
		rec := e.record(w.b.arena)
		if !bytes.Equal(rec.Key, want[i].key) || string(rec.Value) != fmt.Sprint(want[i].seq) {
			t.Fatalf("position %d: key %q emit %s, want key %q emit %d", i, rec.Key, rec.Value, want[i].key, want[i].seq)
		}
	}
	// The pairwise comparison agrees with bytes.Compare too, not only the
	// sort built on it.
	for _, a := range got {
		for _, b := range got {
			ka, kb := a.record(w.b.arena).Key, b.record(w.b.arena).Key
			if c := compareKeys(w.b.arena, a, b); c != bytes.Compare(ka, kb) {
				t.Fatalf("compareKeys(%q, %q) = %d, bytes.Compare = %d", ka, kb, c, bytes.Compare(ka, kb))
			}
		}
	}
}

// TestCombinerOutputOutOfOrderIsSorted gives the writer a combiner that
// emits, for every key, a record under a smaller key too: the segment must
// still be in key order, with the combiner's equal keys in emit order.
func TestCombinerOutputOutOfOrderIsSorted(t *testing.T) {
	w := newSortWriter(writerConfig{
		partitions: 1, dir: t.TempDir(), taskID: "t",
		combine: func(key []byte, values [][]byte, emit Emit) error {
			emit(key, values[0])
			emit([]byte("A-first"), key)
			return nil
		},
	})
	for _, k := range []string{"m", "b", "z", "b"} {
		if err := w.Add(0, []byte(k), []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	final := MOFPaths{Data: w.cfg.dir + "/final.data", Index: w.cfg.dir + "/final.index"}
	if err := w.Seal(final); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range readPartition(t, final, 0) {
		got = append(got, string(r.Key)+"="+string(r.Value))
	}
	want := []string{"A-first=b", "A-first=m", "A-first=z", "b=v-b", "m=v-m", "z=v-z"}
	if !slices.Equal(got, want) {
		t.Fatalf("segment %v, want %v", got, want)
	}
}

// mapTaskHarness runs single map attempts of one job over a one-block
// input, in the caller's slot buffers.
type mapTaskHarness struct {
	c    *Cluster
	job  *Job
	a    mapAssignment
	bufs *mapBuffers
}

func newMapTaskHarness(t *testing.T, job *Job, content []byte) *mapTaskHarness {
	t.Helper()
	fs, c := testCluster(t, 1, int64(len(content)))
	putFile(t, fs, job.Input, string(content))
	if err := job.Validate(); err != nil {
		t.Fatal(err)
	}
	splits, err := fs.Splits(job.Input)
	if err != nil || len(splits) != 1 {
		t.Fatalf("splits = %v, %v; want one", splits, err)
	}
	return &mapTaskHarness{c: c, job: job, a: c.scheduleMaps("job", splits)[0], bufs: newMapBuffers()}
}

func (h *mapTaskHarness) run(t *testing.T) Counters {
	cs := &counterSet{}
	var commits sync.Map
	err := h.c.runMapTask(h.a, h.a.node, 0, h.job, cs, h.bufs, &commits, func(string, string) {})
	if err != nil {
		t.Fatal(err)
	}
	return cs.snapshot()
}

// TestMapTaskAllocationsDoNotGrowWithRecords runs a warmed-up map task
// over 1,000 and over 10,000 records: a record must cost no allocation, on
// the plain path and through the combiner, and a slot's next task must find
// the arena and the entry slice it needs already there.
func TestMapTaskAllocationsDoNotGrowWithRecords(t *testing.T) {
	fixed := func(n int) []byte {
		var sb bytes.Buffer
		for i := 0; i < n; i++ {
			fmt.Fprintf(&sb, "%08d|%023d", (i*7919)%n, i)
		}
		return sb.Bytes()
	}
	lines := func(n int) []byte {
		var sb bytes.Buffer
		for i := 0; i < n; i++ {
			fmt.Fprintf(&sb, "word%05d\n", (i*7919)%(n/4))
		}
		return sb.Bytes()
	}
	identity := func(k, v []byte, emit Emit) error { emit(k, v); return nil }
	one := []byte("1")
	cases := []struct {
		name  string
		input func(n int) []byte
		job   Job
	}{
		{"fixed-width", fixed, Job{InputFormat: FixedWidthInput(8, 32), Map: identity}},
		{"lines-combined", lines, Job{
			Map:     func(_, line []byte, emit Emit) error { emit(line, one); return nil },
			Combine: func(key []byte, values [][]byte, emit Emit) error { emit(key, values[0]); return nil },
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			allocs := make(map[int]float64)
			for _, n := range []int{1_000, 10_000} {
				job := tc.job
				job.Name, job.Input, job.Output, job.NumReducers = "alloc", "/in", "/out", 4
				h := newMapTaskHarness(t, &job, tc.input(n))
				if got := h.run(t); got.MapInputRecords != int64(n) || got.MapOutputRecords != int64(n) {
					t.Fatalf("%d records: counters %+v", n, got)
				}
				arena, entries := &h.bufs.arena[:1][0], &h.bufs.entries[:1][0]
				allocs[n] = testing.AllocsPerRun(5, func() { h.run(t) })
				if &h.bufs.arena[:1][0] != arena || &h.bufs.entries[:1][0] != entries {
					t.Fatalf("%d records: the slot's later tasks allocated a new arena or entry slice", n)
				}
			}
			t.Logf("mallocs per map task: %v", allocs)
			if allocs[10_000] > allocs[1_000]+2 {
				t.Fatalf("a map task over 10,000 records makes %.0f allocations, over 1,000 records %.0f: records cost allocations",
					allocs[10_000], allocs[1_000])
			}
		})
	}
}

// TestCombineAllocatesNoSlicePerGroup combines 10,000 groups in a warmed-up
// writer: the combiner's output goes to reused buffers, not to clones.
func TestCombineAllocatesNoSlicePerGroup(t *testing.T) {
	w := newSortWriter(writerConfig{
		partitions: 1, dir: t.TempDir(), taskID: "t",
		combine: func(key []byte, values [][]byte, emit Emit) error { emit(key, values[len(values)-1]); return nil },
	})
	for i := 0; i < 20_000; i++ {
		if err := w.Add(0, []byte(fmt.Sprintf("group-%05d", i%10_000)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	part := w.sorted()[0]
	var out []sortEntry
	allocs := testing.AllocsPerRun(3, func() {
		var err error
		if out, err = w.combine(part); err != nil {
			t.Fatal(err)
		}
	})
	if len(out) != 10_000 {
		t.Fatalf("combined to %d records, want 10000", len(out))
	}
	if allocs > 4 {
		t.Fatalf("combining 10,000 groups makes %.0f allocations, want a constant few", allocs)
	}
}

// TestFixedReaderReusesItsBuffer pins the reader side of the borrowed-slice
// contract: the slices of one record are the memory the next record is
// read into, which is what makes reading allocation-free and is why a map
// function must copy what it keeps (internal/workload runs every job under
// a reader that overwrites records to show that none keeps any).
func TestFixedReaderReusesItsBuffer(t *testing.T) {
	rr := FixedWidthInput(2, 6)(strings.NewReader("k1--v1k2--v2"))
	k1, v1, err := rr.Next()
	if err != nil || string(k1) != "k1" || string(v1) != "--v1" {
		t.Fatalf("first = %q/%q/%v", k1, v1, err)
	}
	k2, v2, err := rr.Next()
	if err != nil || string(k2) != "k2" || string(v2) != "--v2" {
		t.Fatalf("second = %q/%q/%v", k2, v2, err)
	}
	if &k1[0] != &k2[0] || string(v1) != "--v2" {
		t.Fatal("the second record was not read into the first record's memory")
	}
}

// TestReduceSeesTheEmptyKey: a map that emits "" as a key is as legal as
// any other, and its group reaches Reduce. It used to be dropped without an
// error between the merge and the reduce function.
func TestReduceSeesTheEmptyKey(t *testing.T) {
	fs, c := testCluster(t, 2, 1024)
	putFile(t, fs, "/in", "x\n\ny\n\n\nx\n")
	job := wordCountJob("/in", "/out", 2)
	job.Map = func(_, line []byte, emit Emit) error { // the line is the key: three are empty
		emit(line, []byte("1"))
		return nil
	}
	res, err := c.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	got := parseCounts(t, strings.ReplaceAll("\n"+catOutputs(t, fs, res), "\n\t", "\n<empty>\t"))
	if got["<empty>"] != 3 || got["x"] != 2 || got["y"] != 1 || len(got) != 3 {
		t.Fatalf("counts = %v, want <empty>:3 x:2 y:1", got)
	}
	if res.Counters.ReduceGroups != 3 {
		t.Fatalf("%d reduce groups, want 3", res.Counters.ReduceGroups)
	}
}

// TestEveryReduceAttemptReleasesWhatItWasLent: Fetcher.Release runs once
// per reduce attempt — finished, failed and retried, or failed for good —
// and after it nothing the fetcher lent is still on loan. The local
// fetcher overwrites what it takes back, so an engine that released before
// the merge was done would also get the counts wrong.
func TestEveryReduceAttemptReleasesWhatItWasLent(t *testing.T) {
	for name, tc := range map[string]struct {
		failures int64 // reduce calls that fail, from the third on
		attempts int   // reduce attempts that follow from it
		wantErr  bool
	}{
		"finished":        {0, 1, false},
		"retried":         {1, 2, false},
		"failed-for-good": {2, 2, true},
	} {
		t.Run(name, func(t *testing.T) {
			fs, c := testCluster(t, 2, 1024)
			c.cfg.MaxTaskAttempts = 2
			putFile(t, fs, "/in", "a b c\nb c d\nc d e\n")
			job := wordCountJob("/in", "/out", 1)
			var calls, failed atomic.Int64
			inner := job.Reduce
			job.Reduce = func(k []byte, vs [][]byte, emit Emit) error {
				if calls.Add(1)%5 == 3 && failed.Add(1) <= tc.failures {
					return fmt.Errorf("reduce failure after two groups")
				}
				return inner(k, vs, emit)
			}
			res, err := c.Run(job)
			if (err != nil) != tc.wantErr {
				t.Fatalf("Run = %v, want an error: %v", err, tc.wantErr)
			}
			if err == nil {
				if got := parseCounts(t, catOutputs(t, fs, res)); got["c"] != 3 || len(got) != 5 {
					t.Fatalf("wrong output: %v", got)
				}
			}
			released := 0
			for _, f := range c.provider.(*localProvider).fetchers {
				f.mu.Lock()
				if len(f.lent) != 0 {
					t.Errorf("segments still on loan after the job: %d reduce tasks", len(f.lent))
				}
				for _, n := range f.released {
					released += n
				}
				f.mu.Unlock()
			}
			if released != tc.attempts {
				t.Fatalf("Release ran %d times over %d reduce attempts", released, tc.attempts)
			}
		})
	}
}
