package shuffle

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/dfs"
	"repro/internal/mapred"
)

// fixture builds a DFS + compute cluster over the given provider.
func fixture(t *testing.T, provider mapred.ShuffleProvider, nodes int, blockSize int64) (*dfs.Cluster, *mapred.Cluster) {
	t.Helper()
	var names []string
	for i := 0; i < nodes; i++ {
		names = append(names, fmt.Sprintf("node%02d", i))
	}
	fs, err := dfs.NewCluster(dfs.Config{BlockSize: blockSize, Replication: 1}, names, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c, err := mapred.NewCluster(mapred.Config{Nodes: names, WorkDir: t.TempDir()}, fs, provider)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return fs, c
}

func putFile(t *testing.T, fs *dfs.Cluster, path, content string) {
	t.Helper()
	w, err := fs.Create(path, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(w, content); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func catOutputs(t *testing.T, fs *dfs.Cluster, res *mapred.Result) string {
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

func wordCountJob(input, output string, reducers int) *mapred.Job {
	return &mapred.Job{
		Name:        "wordcount",
		Input:       input,
		Output:      output,
		NumReducers: reducers,
		Map: func(_, value []byte, emit mapred.Emit) error {
			for _, w := range strings.Fields(string(value)) {
				emit([]byte(w), []byte("1"))
			}
			return nil
		},
		Reduce: func(key []byte, values [][]byte, emit mapred.Emit) error {
			emit(key, []byte(strconv.Itoa(len(values))))
			return nil
		},
	}
}

// corpus builds a deterministic multi-line input.
func corpus(lines int) string {
	var sb strings.Builder
	for i := 0; i < lines; i++ {
		fmt.Fprintf(&sb, "alpha beta gamma w%03d w%03d shared\n", i%40, (i*13)%40)
	}
	return sb.String()
}

// providers returns a constructor per shuffle implementation under test.
func providers(t *testing.T) map[string]func() mapred.ShuffleProvider {
	return map[string]func() mapred.ShuffleProvider{
		"hadoop-http": func() mapred.ShuffleProvider {
			return NewHTTPProvider(HTTPConfig{})
		},
		"jbs-tcp": func() mapred.ShuffleProvider {
			p, err := NewJBSProvider(JBSConfig{Transport: "tcp"})
			if err != nil {
				t.Fatal(err)
			}
			return p
		},
	}
}

func TestWordCountAcrossAllProviders(t *testing.T) {
	input := corpus(60)
	var outputs []string
	var names []string
	for name, mk := range providers(t) {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			fs, c := fixture(t, mk(), 3, 512)
			putFile(t, fs, "/in", input)
			res, err := c.Run(wordCountJob("/in", "/out", 3))
			if err != nil {
				t.Fatal(err)
			}
			if res.Shuffle == "" {
				t.Fatal("result missing shuffle name")
			}
			out := catOutputs(t, fs, res)
			outputs = append(outputs, out)
			names = append(names, name)
			// Sanity: the "shared" token appears once per line.
			if !strings.Contains(out, "shared\t60") {
				t.Fatalf("output missing shared count: %.200s", out)
			}
		})
	}
	if len(outputs) == 2 && outputs[1] != outputs[0] {
		t.Fatalf("provider %s output differs from %s", names[1], names[0])
	}
}

func TestJBSZeroSpillsVsBaselineSpills(t *testing.T) {
	input := corpus(400)
	// Baseline with a tiny shuffle memory budget must spill.
	httpProv := NewHTTPProvider(HTTPConfig{ShuffleMemory: 2 << 10})
	fs1, c1 := fixture(t, httpProv, 2, 2048)
	putFile(t, fs1, "/in", input)
	res1, err := c1.Run(wordCountJob("/in", "/out", 2))
	if err != nil {
		t.Fatal(err)
	}
	if res1.Counters.SpillEvents == 0 || res1.Counters.SpilledBytes == 0 {
		t.Fatalf("baseline did not spill: %+v", res1.Counters)
	}

	// JBS with its network-levitated merge never spills.
	jbsProv, _ := NewJBSProvider(JBSConfig{})
	fs2, c2 := fixture(t, jbsProv, 2, 2048)
	putFile(t, fs2, "/in", input)
	res2, err := c2.Run(wordCountJob("/in", "/out", 2))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Counters.SpillEvents != 0 || res2.Counters.SpilledBytes != 0 {
		t.Fatalf("JBS spilled shuffle data: %+v", res2.Counters)
	}
	// And both produced the same answer.
	if catOutputs(t, fs1, res1) != catOutputs(t, fs2, res2) {
		t.Fatal("outputs differ between baseline and JBS")
	}
}

func TestJBSConsolidatesConnections(t *testing.T) {
	prov, _ := NewJBSProvider(JBSConfig{Transport: "tcp"})
	fs, c := fixture(t, prov, 3, 256)
	putFile(t, fs, "/in", corpus(100))
	// 6 reducers over 3 nodes = 2 ReduceTasks per node sharing one
	// NetMerger each.
	if _, err := c.Run(wordCountJob("/in", "/out", 6)); err != nil {
		t.Fatal(err)
	}
	for _, node := range []string{"node00", "node01", "node02"} {
		st := prov.MergerStats(node)
		if st.Requests == 0 {
			t.Fatalf("node %s made no fetches", node)
		}
		// Consolidation: at most one connection per remote node (3 nodes),
		// regardless of reducer count.
		if st.ConnectionsHi > 3 {
			t.Fatalf("node %s peak connections = %d, want <= 3", node, st.ConnectionsHi)
		}
	}
}

func TestJBSSupplierPipelineServed(t *testing.T) {
	prov, _ := NewJBSProvider(JBSConfig{Transport: "tcp"})
	fs, c := fixture(t, prov, 2, 256)
	putFile(t, fs, "/in", corpus(80))
	res, err := c.Run(wordCountJob("/in", "/out", 4))
	if err != nil {
		t.Fatal(err)
	}
	// A supplier adds BytesServed after its last chunk's Send returns,
	// which can trail the job's end; Inflight() == 0 is ordered after it.
	deadline := time.Now().Add(5 * time.Second)
	for _, node := range []string{"node00", "node01"} {
		prov.mu.Lock()
		s := prov.suppliers[node]
		prov.mu.Unlock()
		for s.Inflight() != 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	var served, requests int64
	for _, node := range []string{"node00", "node01"} {
		st := prov.SupplierStats(node)
		served += st.BytesServed
		requests += st.Requests
	}
	if requests != res.Counters.ShuffledSegments {
		t.Fatalf("supplier requests %d != shuffled segments %d", requests, res.Counters.ShuffledSegments)
	}
	if served != res.Counters.ShuffledBytes {
		t.Fatalf("supplier bytes %d != shuffled bytes %d", served, res.Counters.ShuffledBytes)
	}
}

func TestHTTPProviderName(t *testing.T) {
	if NewHTTPProvider(HTTPConfig{}).Name() != "hadoop-http" {
		t.Fatal("baseline name")
	}
	for _, transport := range []string{"", "tcp"} {
		p, err := NewJBSProvider(JBSConfig{Transport: transport})
		if err != nil || p.Name() != "jbs-tcp" {
			t.Fatalf("Transport %q: provider %v, err %v; want jbs-tcp", transport, p, err)
		}
	}
}

// TCP is the one JBS transport: any other value, including the deleted
// emulated-RDMA backend, is refused with an error naming the field.
func TestJBSConfigRejectsUnknownTransport(t *testing.T) {
	for _, transport := range []string{"rdma", "carrier-pigeon"} {
		_, err := NewJBSProvider(JBSConfig{Transport: transport})
		if err == nil || !strings.Contains(err.Error(), "JBSConfig.Transport") {
			t.Errorf("Transport %q: err = %v, want an error naming JBSConfig.Transport", transport, err)
		}
	}
}

func TestHTTPDefaultsMatchHadoop(t *testing.T) {
	cfg := HTTPConfig{}
	cfg.applyDefaults()
	if cfg.CopiersPerReducer != 5 {
		t.Fatalf("copiers = %d, want 5 (Hadoop default)", cfg.CopiersPerReducer)
	}
}

func TestJVMTaxThrottles(t *testing.T) {
	payload := strings.Repeat("x", 64<<10)
	// 1 MB/s over 64 KB should take ~64 ms.
	tax := JVMTax{BytesPerSecond: 1 << 20}
	start := time.Now()
	n, err := io.Copy(io.Discard, tax.Reader(strings.NewReader(payload)))
	if err != nil || n != int64(len(payload)) {
		t.Fatalf("copy: n=%d err=%v", n, err)
	}
	if el := time.Since(start); el < 40*time.Millisecond {
		t.Fatalf("taxed read took %v, want >= ~60ms", el)
	}
	// Zero rate is a no-op passthrough.
	start = time.Now()
	io.Copy(io.Discard, JVMTax{}.Reader(strings.NewReader(payload)))
	if el := time.Since(start); el > 20*time.Millisecond {
		t.Fatalf("untaxed read took %v", el)
	}
}

func TestJVMTaxSlowsBaselineShuffle(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	// The throttle guarantees each served byte takes at least
	// 1/BytesPerSecond on the servlet side and again on the copier side,
	// regardless of machine load — assert that lower bound rather than
	// racing two wall-clock runs.
	const rate = 256 << 10
	prov := NewHTTPProvider(HTTPConfig{Tax: JVMTax{BytesPerSecond: rate}})
	fs, c := fixture(t, prov, 2, 4096)
	putFile(t, fs, "/in", corpus(300))
	start := time.Now()
	res, err := c.Run(wordCountJob("/in", "/out", 2))
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// Each reducer's copiers run concurrently, so the guaranteed floor is
	// the largest single segment's taxed time; use a conservative quarter
	// of the per-side serial time.
	minSerial := time.Duration(float64(res.Counters.ShuffledBytes) / rate * float64(time.Second))
	if floor := minSerial / 4; elapsed < floor {
		t.Fatalf("taxed shuffle took %v, below the throttle floor %v (shuffled %d bytes)",
			elapsed, floor, res.Counters.ShuffledBytes)
	}
	if res.Counters.ShuffledBytes < 10<<10 {
		t.Fatalf("shuffle too small (%d bytes) for a meaningful floor", res.Counters.ShuffledBytes)
	}
}

func TestBaselineErrorPropagation(t *testing.T) {
	// A fetch against a server that was stopped must surface an error.
	prov := NewHTTPProvider(HTTPConfig{})
	fetcher, err := prov.NewFetcher("n", func(string) (string, error) { return "127.0.0.1:1", nil })
	if err != nil {
		t.Fatal(err)
	}
	defer fetcher.Close()
	err = fetcher.Fetch("r", []mapred.SegmentID{{Host: "n", MapTask: "t", Partition: 0}},
		func(mapred.SegmentID, []byte) error { return nil })
	if err == nil {
		t.Fatal("fetch from dead server succeeded")
	}
}

func TestTerasortStyleJobOnJBS(t *testing.T) {
	prov, _ := NewJBSProvider(JBSConfig{})
	fs, c := fixture(t, prov, 3, 1000)
	// 100 fixed-width records: 10-byte key, 10-byte record.
	var sb strings.Builder
	for i := 99; i >= 0; i-- {
		fmt.Fprintf(&sb, "%05d-----", i)
	}
	putFile(t, fs, "/in", sb.String())
	job := &mapred.Job{
		Name:        "terasort",
		Input:       "/in",
		Output:      "/out",
		NumReducers: 2,
		InputFormat: mapred.FixedWidthInput(5, 10),
		Map: func(k, v []byte, emit mapred.Emit) error {
			emit(k, v)
			return nil
		},
		// Range partitioner keeps global order across reducers.
		Partitioner: func(key []byte, n int) int {
			if key[0] < '5' {
				return 0
			}
			return 1
		},
	}
	res, err := c.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	out := catOutputs(t, fs, res)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 100 {
		t.Fatalf("lines = %d, want 100", len(lines))
	}
	for i := 1; i < len(lines); i++ {
		if lines[i-1] > lines[i] {
			t.Fatalf("terasort output not globally sorted at %d: %q > %q", i, lines[i-1], lines[i])
		}
	}
}

func TestJBSFetchRetriesConfig(t *testing.T) {
	prov, err := NewJBSProvider(JBSConfig{Transport: "tcp", FetchRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	fs, c := fixture(t, prov, 2, 512)
	putFile(t, fs, "/in", corpus(40))
	if _, err := c.Run(wordCountJob("/in", "/out", 2)); err != nil {
		t.Fatal(err)
	}
}

// pinMeter wraps the JBS provider's fetchers to weigh what a reduce task
// holds when it gives its segments back: the pool's outstanding buffer
// bytes just before Fetcher.Release minus just after.
type pinMeter struct {
	*JBSProvider
	mu                    sync.Mutex
	segs, fetched, pinned int
}

type meteredFetcher struct {
	mapred.Fetcher
	pm *pinMeter
}

func (p *pinMeter) NewFetcher(node string, addrOf func(string) (string, error)) (mapred.Fetcher, error) {
	f, err := p.JBSProvider.NewFetcher(node, addrOf)
	return &meteredFetcher{Fetcher: f, pm: p}, err
}

func (f *meteredFetcher) Fetch(task string, segs []mapred.SegmentID, deliver func(mapred.SegmentID, []byte) error) error {
	return f.Fetcher.Fetch(task, segs, func(s mapred.SegmentID, data []byte) error {
		f.pm.mu.Lock()
		f.pm.segs++
		f.pm.fetched += bufpool.ClassSize(len(data))
		f.pm.mu.Unlock()
		return deliver(s, data)
	})
}

func (f *meteredFetcher) Release(task string) {
	before := pooledBytesOut()
	f.Fetcher.Release(task)
	f.pm.mu.Lock()
	f.pm.pinned += before - pooledBytesOut()
	f.pm.mu.Unlock()
}

// pooledBytesOut sums the backing buffers of every lease outstanding in
// the default pool's size classes.
func pooledBytesOut() int {
	n := 0
	for _, c := range bufpool.Default().ClassStats() {
		if c.Size > 0 {
			n += int(c.Outstanding()) * c.Size
		}
	}
	return n
}

// TestReduceTaskPinsWhatItFetchedOnEveryBackend: a reduce task parks the
// lease behind every segment until it ends, so a lease must weigh about
// what its segment does — not, say, a 128 KiB transport buffer behind a
// word-count segment of a few hundred bytes. TCP is the only backend.
func TestReduceTaskPinsWhatItFetchedOnEveryBackend(t *testing.T) {
	for _, backend := range []string{"tcp"} {
		t.Run(backend, func(t *testing.T) {
			p, err := NewJBSProvider(JBSConfig{Transport: backend})
			if err != nil {
				t.Fatal(err)
			}
			pm := &pinMeter{JBSProvider: p}
			fs, c := fixture(t, pm, 2, 256)
			putFile(t, fs, "/in", corpus(120))
			// One reducer: when it releases, every map is done and the
			// suppliers are idle, so the pool moves by its leases alone.
			if _, err := c.Run(wordCountJob("/in", "/out", 1)); err != nil {
				t.Fatal(err)
			}
			if pm.segs < 16 {
				t.Fatalf("reduce fetched %d segments; the scenario needs many small ones", pm.segs)
			}
			if pm.pinned <= 0 || pm.pinned >= 2*pm.fetched {
				t.Errorf("%d segments in leases of their own size weigh %d bytes; the reduce task held %d",
					pm.segs, pm.fetched, pm.pinned)
			}
		})
	}
}
