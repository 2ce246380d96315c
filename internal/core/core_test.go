package core

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/bufpool"
	"repro/internal/mof"
	"repro/internal/transport"
)

// leaseOf copies data into a pooled lease for DataCache tests.
func leaseOf(p *bufpool.Pool, data []byte) *bufpool.Lease {
	l := p.Get(len(data))
	copy(l.Bytes(), data)
	return l
}

func TestFetchRequestRoundTrip(t *testing.T) {
	r := fetchRequest{ID: 0xdeadbeef01, Partition: 17, MapTask: "job-0001-m-00042"}
	got, err := decodeFetchRequest(encodeFetchRequest(r))
	if err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Fatalf("got %+v, want %+v", got, r)
	}
}

func TestFetchRequestDecodeErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{msgFetchRequest},
		{msgDataChunk, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		append(encodeFetchRequest(fetchRequest{MapTask: "x"}), 'y'), // trailing junk
	}
	for i, c := range cases {
		if _, err := decodeFetchRequest(c); !errors.Is(err, ErrBadMessage) {
			t.Errorf("case %d: err = %v, want ErrBadMessage", i, err)
		}
	}
}

func TestDataChunkRoundTrip(t *testing.T) {
	for _, c := range []dataChunk{
		{ID: 1, Last: false, Payload: []byte("part one")},
		{ID: 2, Last: true, Payload: nil},
		{ID: 3, Last: true, Failed: true, Payload: []byte("disk on fire")},
	} {
		got, err := decodeDataChunk(encodeDataChunk(c))
		if err != nil {
			t.Fatal(err)
		}
		if got.ID != c.ID || got.Last != c.Last || got.Failed != c.Failed || !bytes.Equal(got.Payload, c.Payload) {
			t.Fatalf("got %+v, want %+v", got, c)
		}
	}
}

func TestDataChunkDecodeErrors(t *testing.T) {
	if _, err := decodeDataChunk([]byte{msgDataChunk}); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("err = %v, want ErrBadMessage", err)
	}
	if _, err := decodeDataChunk(encodeFetchRequest(fetchRequest{MapTask: "x"})); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("err = %v, want ErrBadMessage", err)
	}
}

// Property: protocol messages survive the wire encoding.
func TestProtocolRoundTripProperty(t *testing.T) {
	f := func(id uint64, part uint16, task string, payload []byte, last, failed bool) bool {
		if len(task) > 1000 {
			task = task[:1000]
		}
		req := fetchRequest{ID: id, Partition: uint32(part), MapTask: task}
		gotReq, err := decodeFetchRequest(encodeFetchRequest(req))
		if err != nil || gotReq != req {
			return false
		}
		ch := dataChunk{ID: id, Last: last, Failed: failed, Payload: payload}
		gotCh, err := decodeDataChunk(encodeDataChunk(ch))
		if err != nil {
			return false
		}
		return gotCh.ID == ch.ID && gotCh.Last == ch.Last && gotCh.Failed == ch.Failed &&
			bytes.Equal(gotCh.Payload, ch.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDataCachePinMissAndPut(t *testing.T) {
	pool := bufpool.New()
	c := NewDataCache(1 << 20)
	if _, ok := c.Pin("t", 0); ok {
		t.Fatal("empty cache hit")
	}
	data := []byte("segment bytes")
	c.Put("t", 0, leaseOf(pool, data))
	got, ok := c.Pin("t", 0)
	if !ok || !bytes.Equal(got, data) {
		t.Fatal("Pin after Put missed")
	}
	c.Unpin("t", 0) // the Pin
	c.Unpin("t", 0) // the Put
	if c.Used() != int64(len(data)) {
		t.Fatalf("Used = %d, want %d (unpinned entries stay cached)", c.Used(), len(data))
	}
	c.Drain()
	if err := pool.LeakCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestDataCacheEvictsUnpinnedLRU(t *testing.T) {
	pool := bufpool.New()
	c := NewDataCache(100)
	c.Put("a", 0, leaseOf(pool, make([]byte, 60)))
	c.Unpin("a", 0)
	c.Put("b", 0, leaseOf(pool, make([]byte, 30)))
	c.Unpin("b", 0)
	// 10 bytes left; inserting 50 must evict "a" (LRU: released first...
	// actually "b" released later, so "a" is least recent).
	c.Put("c", 0, leaseOf(pool, make([]byte, 50)))
	if _, ok := c.Pin("a", 0); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, ok := c.Pin("b", 0); !ok {
		t.Fatal("recently used entry evicted")
	}
	_, _, ev := c.Stats()
	if ev == 0 {
		t.Fatal("no evictions recorded")
	}
}

func TestDataCachePutBlocksOnPinnedData(t *testing.T) {
	pool := bufpool.New()
	c := NewDataCache(100)
	c.Put("a", 0, leaseOf(pool, make([]byte, 80))) // pinned
	done := make(chan struct{})
	go func() {
		c.Put("b", 0, leaseOf(pool, make([]byte, 50))) // must wait for space
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Put proceeded past a full pinned cache")
	default:
	}
	c.Unpin("a", 0) // now evictable
	<-done
	if _, ok := c.Pin("b", 0); !ok {
		t.Fatal("blocked Put never landed")
	}
}

func TestDataCacheOversizedSegmentAdmitted(t *testing.T) {
	pool := bufpool.New()
	c := NewDataCache(10)
	got := c.Put("huge", 0, leaseOf(pool, make([]byte, 100)))
	if len(got) != 100 {
		t.Fatal("oversized Put truncated")
	}
	c.Unpin("huge", 0)
}

func TestDataCacheUnpinWithoutPinPanics(t *testing.T) {
	c := NewDataCache(10)
	defer func() {
		if recover() == nil {
			t.Error("unbalanced Unpin did not panic")
		}
	}()
	c.Unpin("x", 0)
}

func TestDataCachePutExistingPins(t *testing.T) {
	pool := bufpool.New()
	c := NewDataCache(1000)
	c.Put("a", 0, leaseOf(pool, []byte("one")))
	got := c.Put("a", 0, leaseOf(pool, []byte("different")))
	if string(got) != "one" {
		t.Fatalf("second Put replaced entry: %q", got)
	}
	c.Unpin("a", 0)
	c.Unpin("a", 0)
	// The duplicate's lease was released on the spot; after draining the
	// resident entry, nothing is outstanding.
	c.Drain()
	if err := pool.LeakCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestDataCacheRefCountedSharing exercises the segment-buffer reference
// counting: two concurrent fetches of one cached segment observe the same
// bytes in the same buffer, the buffer returns to the pool only after both
// release (and the entry is evicted), and checksum verification still
// catches corruption of the shared buffer.
func TestDataCacheRefCountedSharing(t *testing.T) {
	pool := bufpool.New()
	c := NewDataCache(1 << 20)
	seg := bytes.Repeat([]byte("shuffle segment "), 128)
	entry := mof.IndexEntry{
		Length:    int64(len(seg)),
		RawLength: int64(len(seg)),
		Checksum:  crc32.ChecksumIEEE(seg),
	}
	c.Put("t", 0, leaseOf(pool, seg))
	c.Unpin("t", 0) // staging pin: segment now resident and unpinned

	// Two concurrent transmitters fetch the cached segment.
	views := make([][]byte, 2)
	var wg sync.WaitGroup
	for i := range views {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, ok := c.Pin("t", 0)
			if !ok {
				t.Error("resident segment missed")
				return
			}
			views[i] = d
		}()
	}
	wg.Wait()
	if !bytes.Equal(views[0], views[1]) || !bytes.Equal(views[0], seg) {
		t.Fatal("concurrent fetches observed different bytes")
	}
	if &views[0][0] != &views[1][0] {
		t.Fatal("concurrent fetches did not share one buffer")
	}
	for _, v := range views {
		if err := mof.VerifySegment(v, entry); err != nil {
			t.Fatalf("shared buffer fails verification: %v", err)
		}
	}

	// First reader releases; the second still holds the buffer. Drain
	// cannot evict a pinned entry, so the buffer must not be in the pool.
	c.Unpin("t", 0)
	c.Drain()
	if err := pool.LeakCheck(); err == nil {
		t.Fatal("buffer returned to pool while a reader still holds it")
	}
	if err := mof.VerifySegment(views[1], entry); err != nil {
		t.Fatalf("buffer corrupted while still held: %v", err)
	}

	// Checksum verification still catches corruption of the shared bytes.
	views[1][0] ^= 0xff
	if err := mof.VerifySegment(views[1], entry); !errors.Is(err, mof.ErrChecksum) {
		t.Fatalf("corruption not caught: %v", err)
	}
	views[1][0] ^= 0xff

	// Last reader releases and the entry is evicted: only now does the
	// buffer go back to the pool.
	c.Unpin("t", 0)
	c.Drain()
	if err := pool.LeakCheck(); err != nil {
		t.Fatalf("buffer not returned after last release: %v", err)
	}
}

// buildMOF writes a MOF with one segment per partition and returns the
// paths and the raw segment bytes per partition.
func buildMOF(t *testing.T, dir, task string, parts int) (mof.Index, string, string, [][]byte) {
	t.Helper()
	data := filepath.Join(dir, task+".data")
	index := filepath.Join(dir, task+".index")
	w, err := mof.NewWriter(data, index, parts)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < parts; p++ {
		if err := w.BeginSegment(p); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5+p; i++ {
			key := fmt.Sprintf("%s-p%d-k%02d", task, p, i)
			if err := w.Append([]byte(key), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	ix, err := mof.ReadIndex(index)
	if err != nil {
		t.Fatal(err)
	}
	var raw [][]byte
	for p := 0; p < parts; p++ {
		e, _ := ix.Entry(p)
		seg, err := mof.ReadSegmentBytes(data, e)
		if err != nil {
			t.Fatal(err)
		}
		raw = append(raw, seg)
	}
	return *ix, data, index, raw
}

// supplierFixture stands up a MOFSupplier over the given transport serving
// a set of generated MOFs.
type supplierFixture struct {
	supplier *MOFSupplier
	addr     string
	segments map[string][][]byte // task -> partition -> raw bytes
}

func newSupplierFixture(t *testing.T, tr transport.Transport, addr string, tasks, parts int) *supplierFixture {
	t.Helper()
	poolBalanced(t)
	dir := t.TempDir()
	paths := map[string][2]string{}
	segs := map[string][][]byte{}
	for i := 0; i < tasks; i++ {
		task := fmt.Sprintf("m-%05d", i)
		_, data, index, raw := buildMOF(t, dir, task, parts)
		paths[task] = [2]string{data, index}
		segs[task] = raw
	}
	lookup := func(task string) (string, string, error) {
		p, ok := paths[task]
		if !ok {
			return "", "", fmt.Errorf("no MOF %s", task)
		}
		return p[0], p[1], nil
	}
	s, err := NewMOFSupplier(SupplierConfig{
		Transport:      tr,
		Addr:           addr,
		BufferSize:     4 << 10, // small buffers to force chunking
		DataCacheBytes: 1 << 20,
	}, lookup)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return &supplierFixture{supplier: s, addr: s.Addr(), segments: segs}
}

func transports(t *testing.T) map[string]func() (transport.Transport, string) {
	return map[string]func() (transport.Transport, string){
		"tcp": func() (transport.Transport, string) {
			return transport.NewTCP(), "127.0.0.1:0"
		},
	}
}

func TestSupplierAndMergerEndToEnd(t *testing.T) {
	for name, mk := range transports(t) {
		t.Run(name, func(t *testing.T) {
			tr, addr := mk()
			fx := newSupplierFixture(t, tr, addr, 4, 3)
			m, err := NewNetMerger(MergerConfig{Transport: tr})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()

			var specs []FetchSpec
			for task := range fx.segments {
				for p := 0; p < 3; p++ {
					specs = append(specs, FetchSpec{Addr: fx.addr, MapTask: task, Partition: p})
				}
			}
			got := map[string][]byte{}
			err = m.Fetch(specs, func(s FetchSpec, data []byte) error {
				got[fmt.Sprintf("%s/%d", s.MapTask, s.Partition)] = bytes.Clone(data)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(specs) {
				t.Fatalf("delivered %d segments, want %d", len(got), len(specs))
			}
			for task, parts := range fx.segments {
				for p, want := range parts {
					if !bytes.Equal(got[fmt.Sprintf("%s/%d", task, p)], want) {
						t.Fatalf("segment %s/%d corrupted", task, p)
					}
				}
			}
			st := m.Stats()
			if st.Requests != int64(len(specs)) || st.Errors != 0 {
				t.Fatalf("merger stats = %+v", st)
			}
			ss := fx.supplier.Stats()
			if ss.Requests != int64(len(specs)) || ss.Errors != 0 {
				t.Fatalf("supplier stats = %+v", ss)
			}
			if ss.GroupTurns == 0 || ss.DiskReads == 0 {
				t.Fatalf("prefetch pipeline idle: %+v", ss)
			}
		})
	}
}

func TestConcurrentReducersShareOneConnection(t *testing.T) {
	tr := transport.NewTCP()
	fx := newSupplierFixture(t, tr, "127.0.0.1:0", 6, 4)
	m, err := NewNetMerger(MergerConfig{Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Four "ReduceTasks" fetch their partitions concurrently through the
	// shared NetMerger.
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for p := 0; p < 4; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			var specs []FetchSpec
			for task := range fx.segments {
				specs = append(specs, FetchSpec{Addr: fx.addr, MapTask: task, Partition: p})
			}
			n := 0
			err := m.Fetch(specs, func(s FetchSpec, data []byte) error {
				if !bytes.Equal(data, fx.segments[s.MapTask][p]) {
					return fmt.Errorf("corrupt segment %s/%d", s.MapTask, p)
				}
				n++
				return nil
			})
			if err != nil {
				errs <- err
				return
			}
			if n != len(specs) {
				errs <- fmt.Errorf("reducer %d got %d of %d", p, n, len(specs))
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Consolidation: one remote node means one connection, regardless of
	// four concurrent reducers (the paper's key resource saving).
	if hi := m.Stats().ConnectionsHi; hi != 1 {
		t.Fatalf("peak connections = %d, want 1 (consolidated)", hi)
	}
}

func TestFetchUnknownMOFSurfacesRemoteError(t *testing.T) {
	tr := transport.NewTCP()
	fx := newSupplierFixture(t, tr, "127.0.0.1:0", 1, 1)
	m, err := NewNetMerger(MergerConfig{Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	err = m.Fetch([]FetchSpec{{Addr: fx.addr, MapTask: "missing", Partition: 0}},
		func(FetchSpec, []byte) error { return nil })
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("err = %v, want ErrRemote", err)
	}
	// The connection stays healthy for subsequent fetches.
	task := "m-00000"
	err = m.Fetch([]FetchSpec{{Addr: fx.addr, MapTask: task, Partition: 0}},
		func(s FetchSpec, data []byte) error {
			if !bytes.Equal(data, fx.segments[task][0]) {
				return fmt.Errorf("corrupt")
			}
			return nil
		})
	if err != nil {
		t.Fatalf("fetch after remote error: %v", err)
	}
}

func TestFetchBadPartitionSurfacesRemoteError(t *testing.T) {
	tr := transport.NewTCP()
	fx := newSupplierFixture(t, tr, "127.0.0.1:0", 1, 2)
	m, _ := NewNetMerger(MergerConfig{Transport: tr})
	defer m.Close()
	err := m.Fetch([]FetchSpec{{Addr: fx.addr, MapTask: "m-00000", Partition: 99}},
		func(FetchSpec, []byte) error { return nil })
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("err = %v, want ErrRemote", err)
	}
}

func TestFetchNoListener(t *testing.T) {
	tr := transport.NewTCP()
	m, _ := NewNetMerger(MergerConfig{Transport: tr})
	defer m.Close()
	err := m.Fetch([]FetchSpec{{Addr: "127.0.0.1:1", MapTask: "x", Partition: 0}},
		func(FetchSpec, []byte) error { return nil })
	if err == nil {
		t.Fatal("fetch from dead address succeeded")
	}
}

func TestFetchEmptySpecs(t *testing.T) {
	m, _ := NewNetMerger(MergerConfig{Transport: transport.NewTCP()})
	defer m.Close()
	if err := m.Fetch(nil, func(FetchSpec, []byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestFetchAfterClose(t *testing.T) {
	m, _ := NewNetMerger(MergerConfig{Transport: transport.NewTCP()})
	m.Close()
	err := m.Fetch([]FetchSpec{{Addr: "x", MapTask: "t", Partition: 0}},
		func(FetchSpec, []byte) error { return nil })
	if !errors.Is(err, transport.ErrConnClosed) {
		t.Fatalf("err = %v, want ErrConnClosed", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestDeliverErrorAborts(t *testing.T) {
	tr := transport.NewTCP()
	fx := newSupplierFixture(t, tr, "127.0.0.1:0", 3, 1)
	m, _ := NewNetMerger(MergerConfig{Transport: tr})
	defer m.Close()
	var specs []FetchSpec
	for task := range fx.segments {
		specs = append(specs, FetchSpec{Addr: fx.addr, MapTask: task, Partition: 0})
	}
	boom := errors.New("deliver failed")
	err := m.Fetch(specs, func(FetchSpec, []byte) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want deliver error", err)
	}
}

func TestSupplierDataCacheHitsOnRepeatedFetch(t *testing.T) {
	tr := transport.NewTCP()
	fx := newSupplierFixture(t, tr, "127.0.0.1:0", 1, 1)
	m, _ := NewNetMerger(MergerConfig{Transport: tr})
	defer m.Close()
	spec := []FetchSpec{{Addr: fx.addr, MapTask: "m-00000", Partition: 0}}
	for i := 0; i < 3; i++ {
		if err := m.Fetch(spec, func(FetchSpec, []byte) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	st := fx.supplier.Stats()
	if st.DiskReads != 1 {
		t.Fatalf("disk reads = %d, want 1 (DataCache hits)", st.DiskReads)
	}
	if st.CacheHits != 2 {
		t.Fatalf("cache hits = %d, want 2", st.CacheHits)
	}
}

func TestSupplierConfigValidation(t *testing.T) {
	if _, err := NewMOFSupplier(SupplierConfig{}, nil); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := NewMOFSupplier(SupplierConfig{Transport: transport.NewTCP()}, nil); err == nil {
		t.Fatal("missing addr accepted")
	}
	if _, err := NewMOFSupplier(SupplierConfig{Transport: transport.NewTCP(), Addr: "127.0.0.1:0"}, nil); err == nil {
		t.Fatal("missing lookup accepted")
	}
}

// TestSupplierConfigRejectsNegativesByName checks that every numeric knob
// rejects negative values with an error naming the offending field.
func TestSupplierConfigRejectsNegativesByName(t *testing.T) {
	base := func() SupplierConfig {
		return SupplierConfig{Transport: transport.NewTCP(), Addr: "127.0.0.1:0"}
	}
	cases := []struct {
		field string
		mut   func(*SupplierConfig)
	}{
		{"BufferSize", func(c *SupplierConfig) { c.BufferSize = -1 }},
		{"DataCacheBytes", func(c *SupplierConfig) { c.DataCacheBytes = -1 }},
		{"PrefetchBatch", func(c *SupplierConfig) { c.PrefetchBatch = -1 }},
		{"XmitWorkers", func(c *SupplierConfig) { c.XmitWorkers = -1 }},
	}
	for _, tc := range cases {
		cfg := base()
		tc.mut(&cfg)
		err := cfg.applyDefaults()
		if err == nil {
			t.Errorf("negative %s accepted", tc.field)
			continue
		}
		if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("negative %s error %q does not name the field", tc.field, err)
		}
	}
	// Zero still means default.
	cfg := base()
	if err := cfg.applyDefaults(); err != nil {
		t.Fatal(err)
	}
	if cfg.BufferSize != transport.DefaultBufferSize || transport.DefaultBufferSize != 128<<10 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

// TestSupplierBufferSizeFitsOneFrame pins the frame-limit check: every
// chunk is one transport frame, so a BufferSize chunk plus its header must
// fit in MaxFrameSize, or every segment that large fails mid-send.
func TestSupplierBufferSizeFitsOneFrame(t *testing.T) {
	lookup := func(string) (string, string, error) { return "", "", nil }
	_, err := NewMOFSupplier(SupplierConfig{
		Transport: transport.NewTCP(), Addr: "127.0.0.1:0", BufferSize: transport.MaxFrameSize,
	}, lookup)
	if err == nil || !strings.Contains(err.Error(), "BufferSize") {
		t.Fatalf("BufferSize = MaxFrameSize: error %v does not name BufferSize", err)
	}
	s, err := NewMOFSupplier(SupplierConfig{
		Transport: transport.NewTCP(), Addr: "127.0.0.1:0", BufferSize: transport.MaxFrameSize - sizedChunkHeaderLen,
	}, lookup)
	if err != nil {
		t.Fatalf("the largest chunk that fits a frame was rejected: %v", err)
	}
	s.Close()
}

func TestMergerConfigValidation(t *testing.T) {
	if _, err := NewNetMerger(MergerConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if maxConnections != 512 {
		t.Fatalf("connection cache max = %d, want 512 (paper)", maxConnections)
	}
}

// TestMergerConfigRejectsNegativesByName mirrors the supplier check: every
// numeric knob rejects negatives with a named-field error.
func TestMergerConfigRejectsNegativesByName(t *testing.T) {
	cases := []struct {
		field string
		mut   func(*MergerConfig)
	}{
		{"WindowPerNode", func(c *MergerConfig) { c.WindowPerNode = -1 }},
		{"MaxRetries", func(c *MergerConfig) { c.MaxRetries = -1 }},
	}
	for _, tc := range cases {
		cfg := MergerConfig{Transport: transport.NewTCP()}
		tc.mut(&cfg)
		err := cfg.applyDefaults()
		if err == nil {
			t.Errorf("negative %s accepted", tc.field)
			continue
		}
		if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("negative %s error %q does not name the field", tc.field, err)
		}
	}
}

func TestManySegmentsManyTasksStress(t *testing.T) {
	tr := transport.NewTCP()
	fx := newSupplierFixture(t, tr, "127.0.0.1:0", 12, 6)
	m, _ := NewNetMerger(MergerConfig{Transport: tr, WindowPerNode: 3})
	defer m.Close()
	var specs []FetchSpec
	for task := range fx.segments {
		for p := 0; p < 6; p++ {
			specs = append(specs, FetchSpec{Addr: fx.addr, MapTask: task, Partition: p})
		}
	}
	total := 0
	err := m.Fetch(specs, func(s FetchSpec, data []byte) error {
		if !bytes.Equal(data, fx.segments[s.MapTask][s.Partition]) {
			return fmt.Errorf("corrupt %s/%d", s.MapTask, s.Partition)
		}
		total++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != 72 {
		t.Fatalf("fetched %d segments, want 72", total)
	}
}
