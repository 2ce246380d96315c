package mapred

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dfs"
	"repro/internal/merge"
	"repro/internal/mof"
)

// localProvider is a minimal in-process shuffle used to test the engine in
// isolation: fetchers read segments straight from the producing node's MOF
// registry.
type localProvider struct {
	registries map[string]*MOFRegistry
	fetchers   []*localFetcher // one per node, in NewCluster's node order
}

func newLocalProvider() *localProvider {
	return &localProvider{registries: make(map[string]*MOFRegistry)}
}

func (p *localProvider) Name() string { return "local" }

func (p *localProvider) StartNode(node string, reg *MOFRegistry) (string, func() error, error) {
	p.registries[node] = reg
	return "local://" + node, func() error { return nil }, nil
}

func (p *localProvider) NewFetcher(node string, addrOf func(string) (string, error)) (Fetcher, error) {
	f := &localFetcher{p: p, lent: make(map[string][][]byte), released: make(map[string]int)}
	p.fetchers = append(p.fetchers, f)
	return f, nil
}

func (p *localProvider) NewMerger(spillDir string) (merge.Merger, error) {
	return merge.NewNetLevitatedMerger(), nil
}

type localFetcher struct {
	p *localProvider

	mu sync.Mutex
	// lent is what each reduce task was delivered and has not had
	// released; released counts Release calls per task. Release
	// overwrites the bytes, so an engine that reads a segment after
	// giving it back produces a wrong output, not a lucky right one.
	lent     map[string][][]byte
	released map[string]int
}

func (f *localFetcher) Fetch(reduceTask string, segs []SegmentID, deliver func(SegmentID, []byte) error) error {
	for _, s := range segs {
		reg := f.p.registries[s.Host]
		paths, ok := reg.Lookup(s.MapTask)
		if !ok {
			return fmt.Errorf("no MOF for %s on %s", s.MapTask, s.Host)
		}
		ix, err := mof.ReadIndex(paths.Index)
		if err != nil {
			return err
		}
		e, err := ix.Entry(s.Partition)
		if err != nil {
			return err
		}
		data, err := mof.ReadSegmentBytes(paths.Data, e)
		if err != nil {
			return err
		}
		f.mu.Lock()
		f.lent[reduceTask] = append(f.lent[reduceTask], data)
		f.mu.Unlock()
		if err := deliver(s, data); err != nil {
			return err
		}
	}
	return nil
}

func (f *localFetcher) Release(reduceTask string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, data := range f.lent[reduceTask] {
		for i := range data {
			data[i] = 0xA5
		}
	}
	delete(f.lent, reduceTask)
	f.released[reduceTask]++
}

func (f *localFetcher) Close() error { return nil }

// testCluster builds a DFS + compute cluster over n nodes with small
// blocks.
func testCluster(t *testing.T, n int, blockSize int64) (*dfs.Cluster, *Cluster) {
	t.Helper()
	var nodes []string
	for i := 0; i < n; i++ {
		nodes = append(nodes, fmt.Sprintf("node%02d", i))
	}
	fs, err := dfs.NewCluster(dfs.Config{BlockSize: blockSize, Replication: 1}, nodes, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(Config{
		Nodes:   nodes,
		WorkDir: t.TempDir(),
	}, fs, newLocalProvider())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return fs, c
}

func putFile(t *testing.T, fs *dfs.Cluster, path string, content string) {
	t.Helper()
	w, err := fs.Create(path, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte(content)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func catOutputs(t *testing.T, fs *dfs.Cluster, res *Result) string {
	t.Helper()
	var sb strings.Builder
	for _, p := range res.OutputFiles {
		r, err := fs.Open(p, "")
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(r)
		if err != nil {
			t.Fatal(err)
		}
		sb.Write(data)
	}
	return sb.String()
}

// wordCountJob is the canonical test job.
func wordCountJob(input, output string, reducers int) *Job {
	return &Job{
		Name:        "wordcount",
		Input:       input,
		Output:      output,
		NumReducers: reducers,
		Map: func(_, value []byte, emit Emit) error {
			for _, w := range strings.Fields(string(value)) {
				emit([]byte(w), []byte("1"))
			}
			return nil
		},
		Reduce: func(key []byte, values [][]byte, emit Emit) error {
			emit(key, []byte(strconv.Itoa(len(values))))
			return nil
		},
	}
}

func parseCounts(t *testing.T, out string) map[string]int {
	t.Helper()
	counts := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if line == "" {
			continue
		}
		parts := strings.SplitN(line, "\t", 2)
		if len(parts) != 2 {
			t.Fatalf("bad output line %q", line)
		}
		n, err := strconv.Atoi(parts[1])
		if err != nil {
			t.Fatal(err)
		}
		counts[parts[0]] = n
	}
	return counts
}

func TestWordCountEndToEnd(t *testing.T) {
	fs, c := testCluster(t, 3, 64)
	putFile(t, fs, "/in", "the quick brown fox\nthe lazy dog\nthe fox\n")
	res, err := c.Run(wordCountJob("/in", "/out", 2))
	if err != nil {
		t.Fatal(err)
	}
	counts := parseCounts(t, catOutputs(t, fs, res))
	want := map[string]int{"the": 3, "quick": 1, "brown": 1, "fox": 2, "lazy": 1, "dog": 1}
	if len(counts) != len(want) {
		t.Fatalf("counts = %v, want %v", counts, want)
	}
	for k, v := range want {
		if counts[k] != v {
			t.Fatalf("count[%s] = %d, want %d", k, counts[k], v)
		}
	}
	if res.Counters.ReduceTasks != 2 {
		t.Fatalf("reduce tasks = %d, want 2", res.Counters.ReduceTasks)
	}
	if res.Counters.MapTasks == 0 || res.Counters.MapInputRecords != 3 {
		t.Fatalf("map counters = %+v", res.Counters)
	}
}

func TestMultiBlockInputSpawnsMultipleMaps(t *testing.T) {
	fs, c := testCluster(t, 3, 32)
	// 4 lines of ~24 bytes each across several 32-byte blocks.
	putFile(t, fs, "/in", strings.Repeat("alpha beta gamma delta\n", 4))
	res, err := c.Run(wordCountJob("/in", "/out", 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.MapTasks < 2 {
		t.Fatalf("map tasks = %d, want several", res.Counters.MapTasks)
	}
	// Shuffle moved MapTasks x reducers segments.
	if res.Counters.ShuffledSegments != res.Counters.MapTasks*2 {
		t.Fatalf("segments = %d, want maps*reducers = %d", res.Counters.ShuffledSegments, res.Counters.MapTasks*2)
	}
}

func TestLineSplittingAcrossBlocksIsWhole(t *testing.T) {
	// Lines deliberately straddle block boundaries; the LineInput format
	// operates per split, so block-aligned splits chop lines. This test
	// documents the engine contract: inputs written line-aligned per block
	// survive exactly. (Workload generators align records to blocks.)
	fs, c := testCluster(t, 2, 1024)
	putFile(t, fs, "/in", "a b c\nd e f\n")
	res, err := c.Run(wordCountJob("/in", "/out", 1))
	if err != nil {
		t.Fatal(err)
	}
	counts := parseCounts(t, catOutputs(t, fs, res))
	if len(counts) != 6 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestIdentityReduceSortsGlobally(t *testing.T) {
	fs, c := testCluster(t, 2, 1024)
	putFile(t, fs, "/in", "banana\napple\ncherry\n")
	job := &Job{
		Name:        "sort",
		Input:       "/in",
		Output:      "/out",
		NumReducers: 1,
		Map: func(_, value []byte, emit Emit) error {
			emit(value, nil)
			return nil
		},
		// Reduce nil: identity.
	}
	res, err := c.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	out := catOutputs(t, fs, res)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var keys []string
	for _, l := range lines {
		keys = append(keys, strings.SplitN(l, "\t", 2)[0])
	}
	if !sort.StringsAreSorted(keys) {
		t.Fatalf("identity reduce output not sorted: %v", keys)
	}
	if len(keys) != 3 {
		t.Fatalf("keys = %v", keys)
	}
}

func TestPartitioningIsDisjointAndComplete(t *testing.T) {
	fs, c := testCluster(t, 3, 64)
	var sb strings.Builder
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&sb, "w%02d\n", i)
	}
	putFile(t, fs, "/in", sb.String())
	res, err := c.Run(wordCountJob("/in", "/out", 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OutputFiles) != 4 {
		t.Fatalf("output files = %d, want 4", len(res.OutputFiles))
	}
	seen := map[string]int{}
	for _, p := range res.OutputFiles {
		r, _ := fs.Open(p, "")
		data, _ := io.ReadAll(r)
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			if line == "" {
				continue
			}
			seen[strings.SplitN(line, "\t", 2)[0]]++
		}
	}
	if len(seen) != 50 {
		t.Fatalf("distinct keys = %d, want 50", len(seen))
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("key %s appeared in %d partitions", k, n)
		}
	}
}

func TestHashPartitionerInRange(t *testing.T) {
	for i := 0; i < 1000; i++ {
		key := []byte(fmt.Sprintf("key-%d", i))
		p := HashPartitioner(key, 7)
		if p < 0 || p >= 7 {
			t.Fatalf("partition %d out of range", p)
		}
	}
}

func TestJobValidate(t *testing.T) {
	good := wordCountJob("/i", "/o", 1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if good.InputFormat == nil || good.Partitioner == nil {
		t.Fatal("defaults not filled")
	}
	bad := []*Job{
		{},
		{Name: "x"},
		{Name: "x", Input: "/i", Output: "/o"},
		{Name: "x", Input: "/i", Output: "/o", NumReducers: 1},
	}
	for i, j := range bad {
		if err := j.Validate(); err == nil {
			t.Errorf("job %d validated", i)
		}
	}
}

func TestMapErrorPropagates(t *testing.T) {
	fs, c := testCluster(t, 2, 1024)
	putFile(t, fs, "/in", "x\n")
	job := wordCountJob("/in", "/out", 1)
	job.Map = func(_, _ []byte, _ Emit) error { return fmt.Errorf("map exploded") }
	if _, err := c.Run(job); err == nil || !strings.Contains(err.Error(), "map exploded") {
		t.Fatalf("err = %v, want map failure", err)
	}
}

func TestReduceErrorPropagates(t *testing.T) {
	fs, c := testCluster(t, 2, 1024)
	putFile(t, fs, "/in", "x\n")
	job := wordCountJob("/in", "/out", 1)
	job.Reduce = func(_ []byte, _ [][]byte, _ Emit) error { return fmt.Errorf("reduce exploded") }
	if _, err := c.Run(job); err == nil || !strings.Contains(err.Error(), "reduce exploded") {
		t.Fatalf("err = %v, want reduce failure", err)
	}
}

func TestMissingInputFails(t *testing.T) {
	_, c := testCluster(t, 2, 1024)
	if _, err := c.Run(wordCountJob("/missing", "/out", 1)); err == nil {
		t.Fatal("job over missing input succeeded")
	}
}

func TestMapLocality(t *testing.T) {
	fs, c := testCluster(t, 3, 64)
	// Write from node00: all primary replicas land there, so all maps
	// should be local to node00.
	w, _ := fs.Create("/in", "node00")
	w.Write([]byte(strings.Repeat("word \n", 40)))
	w.Close()
	res, err := c.Run(wordCountJob("/in", "/out", 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.RemoteMapTasks != 0 {
		t.Fatalf("remote maps = %d, want 0 (all input local)", res.Counters.RemoteMapTasks)
	}
	if res.Counters.LocalMapTasks != res.Counters.MapTasks {
		t.Fatalf("local = %d of %d", res.Counters.LocalMapTasks, res.Counters.MapTasks)
	}
}

func TestTwoJobsOnOneCluster(t *testing.T) {
	fs, c := testCluster(t, 2, 1024)
	putFile(t, fs, "/in1", "a a b\n")
	putFile(t, fs, "/in2", "c c c\n")
	r1, err := c.Run(wordCountJob("/in1", "/out1", 1))
	if err != nil {
		t.Fatal(err)
	}
	job2 := wordCountJob("/in2", "/out2", 1)
	job2.Name = "wordcount2"
	r2, err := c.Run(job2)
	if err != nil {
		t.Fatal(err)
	}
	if parseCounts(t, catOutputs(t, fs, r1))["a"] != 2 {
		t.Fatal("job1 output wrong")
	}
	if parseCounts(t, catOutputs(t, fs, r2))["c"] != 3 {
		t.Fatal("job2 output wrong")
	}
}

func TestFixedWidthInput(t *testing.T) {
	fs, c := testCluster(t, 2, 1000)
	// 10 records of 10 bytes: 2-byte key, 8-byte payload.
	var sb strings.Builder
	for i := 9; i >= 0; i-- {
		fmt.Fprintf(&sb, "%d|payload%d", i, i)
	}
	putFile(t, fs, "/in", sb.String())
	job := &Job{
		Name:        "fixed",
		Input:       "/in",
		Output:      "/out",
		NumReducers: 1,
		InputFormat: FixedWidthInput(2, 10),
		Map: func(k, v []byte, emit Emit) error {
			emit(k, v)
			return nil
		},
	}
	res, err := c.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.MapInputRecords != 10 {
		t.Fatalf("input records = %d, want 10", res.Counters.MapInputRecords)
	}
	out := strings.Split(strings.TrimSpace(catOutputs(t, fs, res)), "\n")
	if len(out) != 10 {
		t.Fatalf("output lines = %d", len(out))
	}
	// Identity reduce sorted by key: first key should be "0|".
	if !strings.HasPrefix(out[0], "0|") {
		t.Fatalf("first line = %q", out[0])
	}
}

func TestRecordReaders(t *testing.T) {
	t.Run("line", func(t *testing.T) {
		rr := LineInput(strings.NewReader("one\ntwo\n"))
		k, v, err := rr.Next()
		if err != nil || string(k) != "0" || string(v) != "one" {
			t.Fatalf("first = %q/%q/%v", k, v, err)
		}
		k, v, err = rr.Next()
		if err != nil || string(k) != "1" || string(v) != "two" {
			t.Fatalf("second = %q/%q/%v", k, v, err)
		}
		if _, _, err := rr.Next(); err != io.EOF {
			t.Fatalf("err = %v, want EOF", err)
		}
	})
	t.Run("kvline", func(t *testing.T) {
		rr := KVLineInput(strings.NewReader("k1\tv1\nplain\n"))
		k, v, err := rr.Next()
		if err != nil || string(k) != "k1" || string(v) != "v1" {
			t.Fatalf("first = %q/%q/%v", k, v, err)
		}
		k, v, err = rr.Next()
		if err != nil || string(k) != "plain" || len(v) != 0 {
			t.Fatalf("second = %q/%q/%v", k, v, err)
		}
	})
	t.Run("fixed-truncated", func(t *testing.T) {
		rr := FixedWidthInput(2, 8)(strings.NewReader("short"))
		if _, _, err := rr.Next(); err == nil || err == io.EOF {
			t.Fatalf("err = %v, want truncation error", err)
		}
	})
}

func TestMOFRegistry(t *testing.T) {
	r := NewMOFRegistry()
	if _, ok := r.Lookup("t1"); ok {
		t.Fatal("empty registry found a task")
	}
	r.Register("t2", MOFPaths{Data: "d2", Index: "i2"})
	r.Register("t1", MOFPaths{Data: "d1", Index: "i1"})
	p, ok := r.Lookup("t1")
	if !ok || p.Data != "d1" {
		t.Fatalf("lookup = %+v, %v", p, ok)
	}
	tasks := r.Tasks()
	if len(tasks) != 2 || tasks[0] != "t1" || tasks[1] != "t2" {
		t.Fatalf("tasks = %v, want sorted", tasks)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{Nodes: []string{"a"}, WorkDir: "/tmp/x"}
	if err := cfg.applyDefaults(); err != nil {
		t.Fatal(err)
	}
	if cfg.MapSlotsPerNode != 4 || cfg.ReduceSlotsPerNode != 2 {
		t.Fatalf("defaults = %d/%d, want 4/2 (paper testbed)", cfg.MapSlotsPerNode, cfg.ReduceSlotsPerNode)
	}
	if err := (&Config{WorkDir: "x"}).applyDefaults(); err == nil {
		t.Fatal("no nodes accepted")
	}
	if err := (&Config{Nodes: []string{"a"}}).applyDefaults(); err == nil {
		t.Fatal("no workdir accepted")
	}
}

func TestLargeDeterministicJob(t *testing.T) {
	fs, c := testCluster(t, 4, 2048)
	var sb strings.Builder
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&sb, "word%03d word%03d common\n", i%50, (i*7)%50)
	}
	putFile(t, fs, "/in", sb.String())

	run := func(out string) string {
		job := wordCountJob("/in", out, 3)
		res, err := c.Run(job)
		if err != nil {
			t.Fatal(err)
		}
		return catOutputs(t, fs, res)
	}
	a, b := run("/out-a"), run("/out-b")
	if a != b {
		t.Fatal("two runs of the same job differ")
	}
	counts := parseCounts(t, a)
	if counts["common"] != 500 {
		t.Fatalf("common = %d, want 500", counts["common"])
	}
}

func TestCombinerShrinksShuffle(t *testing.T) {
	fs, c := testCluster(t, 2, 4096)
	putFile(t, fs, "/in", strings.Repeat("dup dup dup other\n", 100))

	run := func(withCombiner bool, out string) *Result {
		job := wordCountJob("/in", out, 2)
		if withCombiner {
			job.Combine = func(key []byte, values [][]byte, emit Emit) error {
				sum := 0
				for _, v := range values {
					n, err := strconv.Atoi(string(v))
					if err != nil {
						return err
					}
					sum += n
				}
				emit(key, []byte(strconv.Itoa(sum)))
				return nil
			}
			// The reducer must now sum counts, not count values.
			job.Reduce = func(key []byte, values [][]byte, emit Emit) error {
				sum := 0
				for _, v := range values {
					n, err := strconv.Atoi(string(v))
					if err != nil {
						return err
					}
					sum += n
				}
				emit(key, []byte(strconv.Itoa(sum)))
				return nil
			}
		}
		res, err := c.Run(job)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	plain := run(false, "/out-plain")
	combined := run(true, "/out-combined")

	if combined.Counters.ShuffledBytes >= plain.Counters.ShuffledBytes {
		t.Fatalf("combiner did not shrink shuffle: %d vs %d",
			combined.Counters.ShuffledBytes, plain.Counters.ShuffledBytes)
	}
	if combined.Counters.CombineInputs == 0 || combined.Counters.CombineOutputs == 0 {
		t.Fatalf("combine counters empty: %+v", combined.Counters)
	}
	// Both agree on the answer.
	a := parseCounts(t, catOutputs(t, fs, plain))
	b := parseCounts(t, catOutputs(t, fs, combined))
	if a["dup"] != 300 || b["dup"] != 300 || a["other"] != b["other"] {
		t.Fatalf("combiner changed results: %v vs %v", a, b)
	}
}

func TestMapSideSpills(t *testing.T) {
	fs, c := testCluster(t, 2, 8192)
	putFile(t, fs, "/in", strings.Repeat("w1 w2 w3 w4 w5 w6 w7 w8\n", 200))

	run := func(sortMem int64, out string) *Result {
		job := wordCountJob("/in", out, 2)
		job.SortMemory = sortMem
		res, err := c.Run(job)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	noSpill := run(0, "/out-nospill")
	spilled := run(256, "/out-spilled") // tiny sort buffer forces many runs

	if noSpill.Counters.MapSpills != 0 {
		t.Fatalf("unbounded sort buffer spilled: %+v", noSpill.Counters)
	}
	if spilled.Counters.MapSpills == 0 || spilled.Counters.MapSpilledBytes == 0 {
		t.Fatalf("tiny sort buffer did not spill: %+v", spilled.Counters)
	}
	// The job answer is identical either way.
	if catOutputs(t, fs, noSpill) != catOutputs(t, fs, spilled) {
		t.Fatal("map-side spilling changed job output")
	}
}

func TestMapSideSpillsWithCombiner(t *testing.T) {
	fs, c := testCluster(t, 2, 8192)
	putFile(t, fs, "/in", strings.Repeat("dup dup dup dup\n", 100))
	sum := func(key []byte, values [][]byte, emit Emit) error {
		total := 0
		for _, v := range values {
			n, err := strconv.Atoi(string(v))
			if err != nil {
				return err
			}
			total += n
		}
		emit(key, []byte(strconv.Itoa(total)))
		return nil
	}
	job := wordCountJob("/in", "/out", 1)
	job.SortMemory = 128
	job.Combine = sum
	job.Reduce = sum
	res, err := c.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.MapSpills == 0 {
		t.Fatal("expected spills")
	}
	counts := parseCounts(t, catOutputs(t, fs, res))
	if counts["dup"] != 400 {
		t.Fatalf("dup = %d, want 400 (combiner ran per spill)", counts["dup"])
	}
}

func TestFlakyMapTaskRetries(t *testing.T) {
	fs, c := testCluster(t, 2, 1024)
	c.cfg.MaxTaskAttempts = 3
	putFile(t, fs, "/in", "a b c\n")

	var failures atomic.Int64
	job := wordCountJob("/in", "/out", 1)
	innerMap := job.Map
	job.Map = func(k, v []byte, emit Emit) error {
		if failures.Add(1) <= 2 {
			return fmt.Errorf("transient map failure %d", failures.Load())
		}
		return innerMap(k, v, emit)
	}
	res, err := c.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.TaskRetries != 2 {
		t.Fatalf("retries = %d, want 2", res.Counters.TaskRetries)
	}
	counts := parseCounts(t, catOutputs(t, fs, res))
	if len(counts) != 3 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestFlakyReduceTaskRetries(t *testing.T) {
	fs, c := testCluster(t, 2, 1024)
	c.cfg.MaxTaskAttempts = 2
	putFile(t, fs, "/in", "x y\n")

	var failed atomic.Bool
	job := wordCountJob("/in", "/out", 1)
	innerReduce := job.Reduce
	job.Reduce = func(k []byte, vs [][]byte, emit Emit) error {
		if failed.CompareAndSwap(false, true) {
			return fmt.Errorf("transient reduce failure")
		}
		return innerReduce(k, vs, emit)
	}
	res, err := c.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.TaskRetries != 1 {
		t.Fatalf("retries = %d, want 1", res.Counters.TaskRetries)
	}
	// The retried reducer's output file was recreated cleanly.
	counts := parseCounts(t, catOutputs(t, fs, res))
	if counts["x"] != 1 || counts["y"] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

// TestFailedReduceAttemptLeavesNoBlocks: a reduce attempt that fails after
// its output file has flushed blocks takes those blocks with it. The
// retried job's output is byte-identical to a fault-free run's, and every
// blk_* file on every datanode belongs to a file the namenode lists.
func TestFailedReduceAttemptLeavesNoBlocks(t *testing.T) {
	const blockSize = 256
	var input strings.Builder
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&input, "w%06d\n", i) // 8 bytes: lines never straddle a block
	}
	// run executes one word count whose reduce function fails on its
	// failAt-th call (never, for 0) and returns the output and the blocks
	// no file owns.
	run := func(failAt int64) (string, []string) {
		root := t.TempDir()
		nodes := []string{"node00", "node01"}
		fs, err := dfs.NewCluster(dfs.Config{BlockSize: blockSize, Replication: 2}, nodes, root)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewCluster(Config{Nodes: nodes, WorkDir: t.TempDir()}, fs, newLocalProvider())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		c.cfg.MaxTaskAttempts = 2
		putFile(t, fs, "/in", input.String())

		job := wordCountJob("/in", "/out", 1)
		var calls atomic.Int64
		inner := job.Reduce
		job.Reduce = func(k []byte, vs [][]byte, emit Emit) error {
			if calls.Add(1) == failAt {
				return fmt.Errorf("reduce fails after %d groups", failAt-1)
			}
			return inner(k, vs, emit)
		}
		res, err := c.Run(job)
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(min(failAt, 1)); res.Counters.TaskRetries != want {
			t.Fatalf("retries = %d, want %d", res.Counters.TaskRetries, want)
		}
		owned := map[string]bool{}
		for _, fi := range fs.List("") {
			for _, b := range fi.Blocks {
				for _, h := range b.Hosts {
					owned[filepath.Join(root, h, fmt.Sprintf("blk_%d", b.ID))] = true
				}
			}
		}
		stored, err := filepath.Glob(filepath.Join(root, "*", "blk_*"))
		if err != nil {
			t.Fatal(err)
		}
		var orphans []string
		for _, p := range stored {
			if !owned[p] {
				orphans = append(orphans, p)
			}
		}
		return catOutputs(t, fs, res), orphans
	}

	want, _ := run(0)
	// 199 groups of 10 output bytes each fill seven 256-byte blocks before
	// the first attempt fails.
	got, orphans := run(200)
	if got != want {
		t.Fatal("retried reduce's output differs from the fault-free run's")
	}
	if len(orphans) != 0 {
		t.Fatalf("blocks no file owns after the failed attempt: %v", orphans)
	}
}

// spillProvider is localProvider with the stock spill merger, at a
// budget small enough that every reduce spills and merges in passes.
type spillProvider struct{ *localProvider }

func (spillProvider) NewMerger(spillDir string) (merge.Merger, error) {
	return merge.NewSpillMerger(spillDir, 64, 2)
}

// TestFailedReduceLeavesNoSpillRuns: a reduce that spills and then fails
// on every attempt takes its spill and merge-pass runs with it.
func TestFailedReduceLeavesNoSpillRuns(t *testing.T) {
	nodes := []string{"node00", "node01"}
	fs, err := dfs.NewCluster(dfs.Config{BlockSize: 256, Replication: 1}, nodes, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	workDir := t.TempDir()
	c, err := NewCluster(Config{Nodes: nodes, WorkDir: workDir, MaxTaskAttempts: 2}, fs, spillProvider{newLocalProvider()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	var input strings.Builder
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&input, "w%06d\n", i)
	}
	putFile(t, fs, "/in", input.String())

	job := wordCountJob("/in", "/out", 1)
	job.Reduce = func([]byte, [][]byte, Emit) error { return fmt.Errorf("reduce always fails") }
	if _, err := c.Run(job); err == nil {
		t.Fatal("job whose reduce always fails succeeded")
	}
	var runs []string
	err = filepath.WalkDir(workDir, func(path string, d os.DirEntry, err error) error {
		if err == nil && filepath.Ext(path) == ".run" {
			runs = append(runs, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 0 {
		t.Fatalf("failed reduce left %d runs, e.g. %s", len(runs), runs[0])
	}
}

func TestPermanentFailureExhaustsAttempts(t *testing.T) {
	fs, c := testCluster(t, 2, 1024)
	c.cfg.MaxTaskAttempts = 3
	putFile(t, fs, "/in", "x\n")
	job := wordCountJob("/in", "/out", 1)
	job.Map = func(_, _ []byte, _ Emit) error { return fmt.Errorf("permanent") }
	_, err := c.Run(job)
	if err == nil || !strings.Contains(err.Error(), "after 3 attempts") {
		t.Fatalf("err = %v, want exhaustion after 3 attempts", err)
	}
}

func TestSpeculativeExecutionRescuesStraggler(t *testing.T) {
	fs, c := testCluster(t, 3, 1024)
	c.cfg.Speculative = true
	c.cfg.SpeculativeDelay = 50 * time.Millisecond
	putFile(t, fs, "/in", "straggle me\n")

	// The primary attempt stalls long past the speculative delay; the
	// backup (a fresh attempt of the same task) runs immediately.
	var calls atomic.Int64
	job := wordCountJob("/in", "/out", 1)
	innerMap := job.Map
	job.Map = func(k, v []byte, emit Emit) error {
		if calls.Add(1) == 1 {
			time.Sleep(400 * time.Millisecond) // straggler
		}
		return innerMap(k, v, emit)
	}
	res, err := c.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.SpeculativeLaunches == 0 {
		t.Fatalf("no speculative attempt launched: %+v", res.Counters)
	}
	if res.Counters.SpeculativeWins == 0 {
		t.Fatalf("backup did not win against a 400ms straggler: %+v", res.Counters)
	}
	counts := parseCounts(t, catOutputs(t, fs, res))
	if counts["straggle"] != 1 || counts["me"] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	// Exactly one attempt committed.
	if res.Counters.MapTasks != 1 {
		t.Fatalf("map tasks = %d, want 1 (single winner)", res.Counters.MapTasks)
	}
}

func TestSpeculativeBackupRescuesFailedPrimary(t *testing.T) {
	fs, c := testCluster(t, 2, 1024)
	c.cfg.Speculative = true
	c.cfg.SpeculativeDelay = 30 * time.Millisecond
	putFile(t, fs, "/in", "w\n")

	// The primary attempt hangs briefly then fails; the backup succeeds.
	var calls atomic.Int64
	job := wordCountJob("/in", "/out", 1)
	innerMap := job.Map
	job.Map = func(k, v []byte, emit Emit) error {
		if calls.Add(1) == 1 {
			time.Sleep(150 * time.Millisecond)
			return fmt.Errorf("primary attempt dies")
		}
		return innerMap(k, v, emit)
	}
	res, err := c.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.MapTasks != 1 {
		t.Fatalf("map tasks = %d", res.Counters.MapTasks)
	}
	if parseCounts(t, catOutputs(t, fs, res))["w"] != 1 {
		t.Fatal("wrong output")
	}
}

func TestSpeculationOffByDefault(t *testing.T) {
	fs, c := testCluster(t, 2, 1024)
	putFile(t, fs, "/in", "x\n")
	res, err := c.Run(wordCountJob("/in", "/out", 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.SpeculativeLaunches != 0 {
		t.Fatal("speculation ran without being enabled")
	}
}

func TestMOFRegistryRegisterOnce(t *testing.T) {
	r := NewMOFRegistry()
	if !r.RegisterOnce("t", MOFPaths{Data: "first"}) {
		t.Fatal("first RegisterOnce lost")
	}
	if r.RegisterOnce("t", MOFPaths{Data: "second"}) {
		t.Fatal("second RegisterOnce won")
	}
	p, _ := r.Lookup("t")
	if p.Data != "first" {
		t.Fatalf("registry holds %q, want first", p.Data)
	}
}

func TestCompressedShuffleSameAnswerFewerBytes(t *testing.T) {
	fs, c := testCluster(t, 2, 4096)
	// Highly repetitive input compresses well.
	putFile(t, fs, "/in", strings.Repeat("lorem ipsum dolor sit amet lorem ipsum\n", 150))

	run := func(compress bool, out string) *Result {
		job := wordCountJob("/in", out, 2)
		job.Combine = nil // keep plenty of duplicate intermediate records
		job.Reduce = func(key []byte, values [][]byte, emit Emit) error {
			emit(key, []byte(strconv.Itoa(len(values))))
			return nil
		}
		job.CompressMOF = compress
		res, err := c.Run(job)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(false, "/out-plain")
	packed := run(true, "/out-packed")

	if packed.Counters.ShuffledBytes >= plain.Counters.ShuffledBytes {
		t.Fatalf("compression did not shrink shuffle: %d vs %d",
			packed.Counters.ShuffledBytes, plain.Counters.ShuffledBytes)
	}
	if catOutputs(t, fs, plain) != catOutputs(t, fs, packed) {
		t.Fatal("compression changed job output")
	}
}

func TestCompressedShuffleWithMapSpills(t *testing.T) {
	fs, c := testCluster(t, 2, 4096)
	putFile(t, fs, "/in", strings.Repeat("aa bb cc dd ee ff\n", 120))
	job := wordCountJob("/in", "/out", 2)
	job.CompressMOF = true
	job.SortMemory = 512 // force multi-run map-side merges of compressed runs
	res, err := c.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.MapSpills == 0 {
		t.Fatal("expected map-side spills")
	}
	counts := parseCounts(t, catOutputs(t, fs, res))
	if counts["aa"] != 120 {
		t.Fatalf("aa = %d, want 120", counts["aa"])
	}
}
