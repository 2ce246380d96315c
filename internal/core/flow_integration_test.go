package core

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/metrics"
	"repro/internal/mof"
	"repro/internal/transport"
)

// flowSupplierFixture stands up a supplier with flow control: a ledger so
// small that one resident segment sheds every concurrent arrival.
func flowSupplierFixture(t *testing.T, tr transport.Transport, tasks, parts int, fc *flow.Config, tenant flow.TenantFunc) *supplierFixture {
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
		Addr:           "127.0.0.1:0",
		BufferSize:     4 << 10,
		DataCacheBytes: 1 << 20,
		Flow:           fc,
		Tenant:         tenant,
	}, lookup)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return &supplierFixture{supplier: s, addr: s.Addr(), segments: segs}
}

// holdFirstData wraps a supplier's transport: the first data frame each
// connection sends waits, up to two seconds, until release reports true.
type holdFirstData struct {
	transport.Transport
	release func() bool
}

func (h *holdFirstData) Listen(addr string) (transport.Listener, error) {
	lis, err := h.Transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &holdListener{Listener: lis, h: h}, nil
}

type holdListener struct {
	transport.Listener
	h *holdFirstData
}

func (l *holdListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &holdConn{Conn: c, h: l.h}, nil
}

// holdConn embeds the plain Conn interface, so the supplier's gathered
// sends fall back to Send, where the hold sits.
type holdConn struct {
	transport.Conn
	h    *holdFirstData
	held bool // Sends are serialized by the supplier's send mutex
}

func (c *holdConn) Send(msg []byte) error {
	if !c.held && len(msg) > 0 && msg[0] == msgDataChunk {
		c.held = true
		for deadline := time.Now().Add(2 * time.Second); !c.h.release() && time.Now().Before(deadline); {
			time.Sleep(100 * time.Microsecond)
		}
	}
	return c.Conn.Send(msg)
}

// TestFlowShedBackoffRetryEndToEnd drives a real supplier+merger pair into
// admission shedding and checks the loop converges: every segment arrives
// intact, no fetch surfaces an error, and the sheds actually happened.
func TestFlowShedBackoffRetryEndToEnd(t *testing.T) {
	tr := transport.NewTCP()
	// AdmitBytes 1: the oversized-alone rule serializes the pipeline to
	// one resident segment, so concurrent arrivals shed deterministically.
	fc := &flow.Config{AdmitBytes: 1, RetryAfter: 200 * time.Microsecond}
	// The first segment's data is held until admission has shed a later
	// arrival: the segment stays charged while the burst is admitted, so
	// the overlap is certain however a loaded scheduler orders the two.
	var sup atomic.Pointer[MOFSupplier]
	hold := &holdFirstData{Transport: tr, release: func() bool {
		s := sup.Load()
		return s != nil && s.FlowState().Ledger.Sheds > 0
	}}
	fx := flowSupplierFixture(t, hold, 8, 4, fc, nil)
	sup.Store(fx.supplier)

	m, err := NewNetMerger(MergerConfig{
		Transport:     tr,
		WindowPerNode: 8, // open wide so the first burst overwhelms admission
		Flow:          &flow.Config{RetryAfter: 200 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	var specs []FetchSpec
	for task := range fx.segments {
		for p := 0; p < 4; p++ {
			specs = append(specs, FetchSpec{Addr: fx.addr, MapTask: task, Partition: p})
		}
	}
	// Several rounds: re-fetching cached segments arrives even faster,
	// making shedding overwhelmingly likely across the set of rounds.
	const rounds = 3
	for round := 0; round < rounds; round++ {
		got := map[string][]byte{}
		err := m.Fetch(specs, func(s FetchSpec, data []byte) error {
			got[fmt.Sprintf("%s/%d", s.MapTask, s.Partition)] = bytes.Clone(data)
			return nil
		})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(got) != len(specs) {
			t.Fatalf("round %d: delivered %d segments, want %d", round, len(got), len(specs))
		}
		for task, parts := range fx.segments {
			for p, want := range parts {
				if !bytes.Equal(got[fmt.Sprintf("%s/%d", task, p)], want) {
					t.Fatalf("round %d: segment %s/%d corrupted", round, task, p)
				}
			}
		}
	}
	st := m.Stats()
	if st.Errors != 0 {
		t.Fatalf("merger surfaced %d errors under shedding", st.Errors)
	}
	if st.Sheds == 0 {
		t.Fatal("no sheds: the scenario did not exercise admission control")
	}
	if st.ShedRetries != st.Sheds {
		t.Errorf("sheds %d vs shed retries %d: parked fetches lost", st.Sheds, st.ShedRetries)
	}
	// The supplier releases a fetch's ledger charge after its last chunk's
	// Send returns, which can trail the merger's delivery. retire settles
	// the pipeline occupancy last, so Inflight() == 0 means settled.
	waitFor(t, 5*time.Second, "the supplier to settle", func() bool { return fx.supplier.Inflight() == 0 })
	ls := fx.supplier.FlowState().Ledger
	if ls == nil || ls.Sheds == 0 {
		t.Fatalf("supplier ledger state %+v, want sheds recorded", ls)
	}
	if ls.Used != 0 {
		t.Errorf("ledger balance %d after drain, want 0", ls.Used)
	}
	mws := m.FlowState().Windows
	if len(mws) != 1 || mws[0].Node != fx.addr {
		t.Fatalf("merger window state = %+v, want one window for %s", mws, fx.addr)
	}
}

// TestFlowTenantsScheduledFairly runs two jobs through a flow-enabled
// supplier with 1:3 weights and checks both finish with the DRR tracking
// their queues.
func TestFlowTenantsScheduledFairly(t *testing.T) {
	tr := transport.NewTCP()
	tenant := func(task string) string {
		// Tasks m-00000..m-00003 are jobA; the rest jobB.
		if task < "m-00004" {
			return "jobA"
		}
		return "jobB"
	}
	fc := &flow.Config{Weights: map[string]int64{"jobA": 1, "jobB": 3}}
	fx := flowSupplierFixture(t, tr, 8, 4, fc, tenant)

	m, err := NewNetMerger(MergerConfig{Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	var specs []FetchSpec
	for task := range fx.segments {
		for p := 0; p < 4; p++ {
			specs = append(specs, FetchSpec{Addr: fx.addr, MapTask: task, Partition: p})
		}
	}
	delivered := 0
	if err := m.Fetch(specs, func(FetchSpec, []byte) error { delivered++; return nil }); err != nil {
		t.Fatal(err)
	}
	if delivered != len(specs) {
		t.Fatalf("delivered %d, want %d", delivered, len(specs))
	}
	tenants := fx.supplier.FlowState().Tenants
	seen := map[string]flow.TenantState{}
	for _, ts := range tenants {
		seen[ts.Tenant] = ts
	}
	for _, name := range []string{"jobA", "jobB"} {
		ts, ok := seen[name]
		if !ok {
			t.Fatalf("tenant %s never scheduled: %+v", name, tenants)
		}
		if ts.QueuedBytes != 0 || ts.Active {
			t.Errorf("tenant %s not drained: %+v", name, ts)
		}
	}
	if seen["jobB"].Weight != 3 || seen["jobA"].Weight != 1 {
		t.Errorf("weights lost: %+v", seen)
	}
}

// TestFlowZeroLengthSegmentsDrain fetches a MOF whose tail partitions are
// empty through a flow-enabled supplier. Empty segments charge the DRR one
// unit each (flow.Cost); if they charged zero, serving the lone non-empty
// segment could deactivate the tenant with fetches still queued, stranding
// them forever — this test would hang instead of draining.
func TestFlowZeroLengthSegmentsDrain(t *testing.T) {
	tr := transport.NewTCP()
	dir := t.TempDir()
	const parts = 6
	dataPath := filepath.Join(dir, "m-0.data")
	indexPath := filepath.Join(dir, "m-0.index")
	w, err := mof.NewWriter(dataPath, indexPath, parts)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.BeginSegment(0); err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("key"), []byte("value")); err != nil {
		t.Fatal(err)
	}
	// Partitions 1..5 are never begun: the writer emits empty entries.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := NewMOFSupplier(SupplierConfig{
		Transport: tr,
		Addr:      "127.0.0.1:0",
		// One request per scheduler turn, so the non-empty segment is
		// served on its own and the tenant's queue must stay non-zero on
		// the strength of the empty segments alone.
		PrefetchBatch: 1,
		Flow:          &flow.Config{},
	}, func(string) (string, string, error) { return dataPath, indexPath, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	m, err := NewNetMerger(MergerConfig{Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	var specs []FetchSpec
	for p := 0; p < parts; p++ {
		specs = append(specs, FetchSpec{Addr: s.Addr(), MapTask: "m-0", Partition: p})
	}
	sizes := make([]int, parts)
	done := make(chan error, 1)
	go func() {
		done <- m.Fetch(specs, func(sp FetchSpec, b []byte) error {
			sizes[sp.Partition] = len(b)
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("fetch hung: zero-length segments stranded in the tenant scheduler")
	}
	if sizes[0] == 0 {
		t.Error("non-empty partition delivered no bytes")
	}
	for p := 1; p < parts; p++ {
		if sizes[p] != 0 {
			t.Errorf("empty partition %d delivered %d bytes", p, sizes[p])
		}
	}
}

// TestShedFrameIgnoredForForeignFetch sends a shed frame from a node that
// does not own the named fetch. Honoring it would decrement the wrong
// group's inflight (permanent window drift) and leak the owner's slot, so
// the merger must drop the frame without moving any accounting.
func TestShedFrameIgnoredForForeignFetch(t *testing.T) {
	m, err := NewNetMerger(MergerConfig{Transport: transport.NewTCP(), Flow: &flow.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	owner, foreign := "10.0.0.1:7000", "10.0.0.2:7000"
	results := make(chan fetchResult, 1) // Close fails the live fetch into this
	m.mu.Lock()
	for _, addr := range []string{owner, foreign} {
		g := &nodeGroup{addr: addr, inflight: metrics.NewMirror(inflightGauge(addr))}
		g.win = flow.NewWindow(*m.cfg.Flow, flow.WindowGauge(addr))
		m.groups[addr] = g
		m.ring = append(m.ring, g)
	}
	p := &pendingFetch{id: 7, spec: FetchSpec{Addr: owner, MapTask: "m-0"}, result: results,
		g: m.groups[owner], state: inFlight}
	m.live[7] = p
	m.groups[owner].acquire()
	m.mu.Unlock()

	frame := appendShed(nil, 7, maxRetryAfter)
	if err := m.handleFlowFrame(foreign, frame); err != nil {
		t.Fatalf("foreign shed returned error: %v", err)
	}
	m.mu.Lock()
	if !attemptIn(m, 7, inFlight) {
		t.Fatal("foreign shed removed the owner's pending fetch")
	}
	if got := m.groups[owner].inflight.Load(); got != 1 {
		t.Errorf("owner inflight = %d, want 1", got)
	}
	if got := m.groups[foreign].inflight.Load(); got != 0 {
		t.Errorf("foreign inflight = %d, want 0", got)
	}
	if m.stats.Sheds != 0 {
		t.Errorf("sheds = %d after a dropped foreign shed, want 0", m.stats.Sheds)
	}
	m.mu.Unlock()

	// The same frame from the true owner sheds normally: the fetch moves
	// from in flight to parked and the slot is released. (The minute-long
	// retry-after keeps the unpark timer from firing before Close stops it.)
	if err := m.handleFlowFrame(owner, frame); err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if attemptIn(m, 7, inFlight) {
		t.Error("owner shed left the fetch pending")
	}
	if !attemptIn(m, 7, parked) {
		t.Error("owner shed did not park the fetch")
	}
	if got := m.groups[owner].inflight.Load(); got != 0 {
		t.Errorf("owner inflight = %d after its shed, want 0", got)
	}
	if m.stats.Sheds != 1 {
		t.Errorf("sheds = %d, want 1", m.stats.Sheds)
	}
}

// TestFlowConfigRejectedByName checks invalid flow configs surface through
// the core constructors with the offending field named.
func TestFlowConfigRejectedByName(t *testing.T) {
	tr := transport.NewTCP()
	_, err := NewMOFSupplier(SupplierConfig{
		Transport: tr,
		Addr:      "127.0.0.1:0",
		Flow:      &flow.Config{AdmitBytes: -5},
	}, func(string) (string, string, error) { return "", "", nil })
	if err == nil || !strings.Contains(err.Error(), "AdmitBytes") {
		t.Errorf("supplier error %v does not name AdmitBytes", err)
	}
	_, err = NewNetMerger(MergerConfig{
		Transport: tr,
		Flow:      &flow.Config{WindowMax: -1},
	})
	if err == nil || !strings.Contains(err.Error(), "WindowMax") {
		t.Errorf("merger error %v does not name WindowMax", err)
	}
	// The named-field rule also covers the merger's own knobs.
	_, err = NewNetMerger(MergerConfig{Transport: tr, WindowPerNode: -1})
	if err == nil || !strings.Contains(err.Error(), "WindowPerNode") {
		t.Errorf("merger error %v does not name WindowPerNode", err)
	}
}

// TestFlowDisabledIsDefault guards the control plane's opt-in nature: a
// nil Flow config keeps ledger, DRR, and windows off.
func TestFlowDisabledIsDefault(t *testing.T) {
	tr := transport.NewTCP()
	fx := newSupplierFixture(t, tr, "127.0.0.1:0", 1, 1)
	st := fx.supplier.FlowState()
	if st.Ledger != nil || st.Tenants != nil {
		t.Errorf("flow state %+v on a flow-disabled supplier", st)
	}
	m, err := NewNetMerger(MergerConfig{Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if ws := m.FlowState().Windows; ws != nil {
		t.Errorf("windows %+v on a flow-disabled merger", ws)
	}
}
