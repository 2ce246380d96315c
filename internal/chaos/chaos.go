// Package chaos is the end-to-end fault harness: it runs full
// supplier↔merger shuffles with the merger dialing through a seeded
// internal/faultnet schedule, and asserts the three invariants that
// define "the shuffle survived":
//
//  1. Byte identity — every fetch that completes delivers bytes
//     identical to a fault-free reference run of the same MOFs.
//  2. Zero goroutine leaks — after both runs tear down, no goroutine
//     started by the scenario survives (internal/leakcheck).
//  3. Conservation — every requested segment terminates exactly once
//     (delivered or failed, never both, never neither), the merger's
//     byte counter equals the bytes actually handed to callers, every
//     shed is eventually retried, and the supplier's admission ledger
//     drains back to zero.
//
// A scenario is reproduced from its seed alone: on failure the harness
// prints the exact `go test` command (with -seed) that replays it. See
// docs/TESTING.md.
package chaos

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/flow"
	"repro/internal/leakcheck"
	"repro/internal/mof"
	"repro/internal/transport"
)

// TB is the subset of testing.TB the harness needs. Keeping the harness
// off *testing.T directly lets non-test tooling (a future chaos CLI)
// drive it too.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
	Fatalf(format string, args ...any)
	Logf(format string, args ...any)
	TempDir() string
}

// Scenario is one seeded chaos run: a small shuffle topology plus the
// fault schedule to inflict on it and the outcomes it must exhibit.
type Scenario struct {
	// Name labels the scenario (and its subtest).
	Name string
	// Seed drives MOF content and every faultnet decision. The harness
	// prints it on failure; -seed on the chaos test binary overrides it.
	Seed uint64
	// Tasks and Parts shape the shuffle: Tasks MOFs × Parts partitions,
	// every (task, part) pair fetched once. Zero means the defaults
	// (3 × 2).
	Tasks, Parts int
	// SegBytes is the approximate segment size; with the fixture's 4 KiB
	// transport buffers a 24 KiB default segment travels as ~7 chunks,
	// leaving room for mid-stream faults. Zero means the default.
	SegBytes int
	// MaxRetries, FetchTimeout, RetryBackoff configure the merger under
	// test (zero = core defaults).
	MaxRetries   int
	FetchTimeout time.Duration
	RetryBackoff time.Duration
	// Flow, when non-nil, enables supplier admission control and merger
	// AIMD windows, so sheds mix into the fault soup.
	Flow *flow.Config
	// Suppliers is the fleet size. Every supplier serves the same fixture
	// directory — the replicated-MOF topology speculative fetching needs —
	// and with more than one the merger learns the full replica set for
	// every spec (index 0 is the primary all fetches start on). Zero or
	// one keeps the classic single-node shuffle.
	Suppliers int
	// Hedge arms the merger's speculative-fetch controller. Requires
	// Suppliers > 1, so a hedge has a distinct replica to race.
	Hedge *flow.HedgeConfig
	// Faults installs the scenario's fault rules; addr is the supplier's
	// bound address, for Node/Blackout scoping. Nil runs fault-free.
	Faults func(addr string, sched *faultnet.Schedule)
	// FaultsAll is Faults for a fleet: it receives every supplier address
	// (primary first) so rules can be scoped per node. When set it is
	// called instead of Faults.
	FaultsAll func(addrs []string, sched *faultnet.Schedule)
	// CloseAfter, when positive, hard-closes the supplier at index
	// CloseSupplier that long into the faulted run — a mid-race drain.
	// Attempts in flight against it die and must be absorbed by the
	// hedge/retry machinery without breaking any invariant.
	CloseAfter    time.Duration
	CloseSupplier int
	// WantCorrupt asserts the merger detected at least one corrupt frame
	// (jbs_merger_corrupt_frames) — and, via byte identity, that the
	// damaged segments were transparently re-fetched.
	WantCorrupt bool
	// WantDeadline asserts the fetch deadline watchdog tripped.
	WantDeadline bool
	// WantErrors marks a scenario whose faults are unrecoverable by
	// design (e.g. every dial refused): fetch errors are expected, and
	// at least one must surface. Conservation and leak checks still
	// apply in full.
	WantErrors bool
	// WantHedges asserts the hedging controller launched at least one
	// speculative duplicate.
	WantHedges bool
	// WantRerouted asserts at least one parked fetch moved to a replica
	// on retry (the failure-path rotation, as opposed to a hedge race).
	WantRerouted bool
	// MinFaults asserts the schedule actually injected at least this
	// many faults in total, so a mis-scoped rule cannot silently turn a
	// chaos scenario into a clean run.
	MinFaults int64
}

func (sc *Scenario) applyDefaults() {
	if sc.Tasks == 0 {
		sc.Tasks = 3
	}
	if sc.Parts == 0 {
		sc.Parts = 2
	}
	if sc.SegBytes == 0 {
		sc.SegBytes = 24 << 10
	}
	if sc.MaxRetries == 0 {
		sc.MaxRetries = 6
	}
	if sc.Suppliers == 0 {
		sc.Suppliers = 1
	}
}

// fixtureBufferSize is the supplier's transport buffer: small, so every
// segment crosses the wire in several chunks and mid-stream faults have
// a stream to interrupt.
const fixtureBufferSize = 4 << 10

// outcome is one fetch's terminal state.
type outcome struct {
	spec core.FetchSpec
	data []byte
	err  error
}

// Run executes one scenario end to end. It drives all assertions
// through t; on any failure it logs the one-command reproduction line.
func Run(t TB, sc Scenario) {
	t.Helper()
	sc.applyDefaults()

	// The failure epilogue: every invariant violation points back to
	// the command that replays this exact run.
	failed := false
	fail := func(format string, args ...any) {
		failed = true
		t.Errorf(format, args...)
	}
	defer func() {
		if failed {
			t.Logf("reproduce: go test ./internal/chaos -run 'TestChaos.*/%s' -seed=%d -v", sc.Name, sc.Seed)
		}
	}()

	snap := leakcheck.Take()
	tcp := transport.NewTCP()

	// Fixture: Tasks MOFs × Parts partitions with seed-derived content,
	// served by every supplier in the fleet (a shared directory is the
	// replicated-MOF layout — each node holds a full copy).
	dir := t.TempDir()
	lookup, specs := buildFixture(t, dir, sc)
	suppliers := make([]*core.MOFSupplier, sc.Suppliers)
	addrs := make([]string, sc.Suppliers)
	defer func() {
		for _, s := range suppliers {
			if s != nil {
				s.Close() // idempotent: a mid-run CloseAfter may get there first
			}
		}
	}()
	for i := range suppliers {
		s, err := core.NewMOFSupplier(core.SupplierConfig{
			Transport:      tcp,
			Addr:           "127.0.0.1:0",
			BufferSize:     fixtureBufferSize,
			DataCacheBytes: 1 << 20,
			Flow:           sc.Flow,
		}, lookup)
		if err != nil {
			t.Fatalf("chaos %s: start supplier %d: %v", sc.Name, i, err)
		}
		suppliers[i], addrs[i] = s, s.Addr()
	}
	for i := range specs {
		specs[i].Addr = addrs[0]
	}

	// Invariant 1 baseline: the fault-free run over the plain transport.
	reference := referenceRun(t, sc, tcp, specs)

	// The faulted run: same suppliers, merger dialing through the seeded
	// fault schedule.
	sched := faultnet.NewSchedule(sc.Seed)
	switch {
	case sc.FaultsAll != nil:
		sc.FaultsAll(addrs, sched)
	case sc.Faults != nil:
		sc.Faults(addrs[0], sched)
	}
	mc := core.MergerConfig{
		Transport:     faultnet.Wrap(tcp, sched),
		WindowPerNode: 2,
		MaxRetries:    sc.MaxRetries,
		FetchTimeout:  sc.FetchTimeout,
		RetryBackoff:  sc.RetryBackoff,
		Flow:          sc.Flow,
		Hedge:         sc.Hedge,
	}
	if len(addrs) > 1 {
		replicaSet := append([]string(nil), addrs...)
		mc.Replicas = func(core.FetchSpec) []string { return replicaSet }
	}
	merger, err := core.NewNetMerger(mc)
	if err != nil {
		t.Fatalf("chaos %s: start merger: %v", sc.Name, err)
	}
	var drainWG sync.WaitGroup
	if sc.CloseAfter > 0 {
		victim := suppliers[sc.CloseSupplier]
		drainWG.Add(1)
		go func() {
			defer drainWG.Done()
			time.Sleep(sc.CloseAfter)
			_ = victim.Close()
		}()
	}
	outcomes := runFetches(merger, specs, 3)
	drainWG.Wait()
	stats := merger.Stats() // before Close: teardown must not inflate counters
	if sc.Hedge != nil {
		// A fetch's result can reach its caller a beat before the loser's
		// bookkeeping lands, so let decided races settle before reading
		// the hedge counters.
		if err := awaitHedgeSettle(merger); err != nil {
			fail("chaos %s: %v", sc.Name, err)
		}
		stats = merger.Stats()
	}

	// Invariant 1 — byte identity with the fault-free run.
	var deliveredBytes int64
	var delivered, errored int
	for _, o := range outcomes {
		if o.err != nil {
			errored++
			if !sc.WantErrors {
				fail("chaos %s: fetch %s/%d failed: %v", sc.Name, o.spec.MapTask, o.spec.Partition, o.err)
			}
			continue
		}
		delivered++
		deliveredBytes += int64(len(o.data))
		want := reference[refKey(o.spec)]
		if !bytes.Equal(o.data, want) {
			fail("chaos %s: fetch %s/%d delivered %d bytes not identical to fault-free run (%d bytes)",
				sc.Name, o.spec.MapTask, o.spec.Partition, len(o.data), len(want))
		}
	}
	if sc.WantErrors && errored == 0 {
		fail("chaos %s: scenario expects fetch errors, every fetch succeeded", sc.Name)
	}

	// Invariant 3 — conservation.
	if delivered+errored != len(specs) {
		fail("chaos %s: %d delivered + %d failed != %d requested", sc.Name, delivered, errored, len(specs))
	}
	if stats.BytesFetched != deliveredBytes {
		fail("chaos %s: merger counted %d fetched bytes, callers received %d", sc.Name, stats.BytesFetched, deliveredBytes)
	}
	if stats.Sheds != stats.ShedRetries {
		fail("chaos %s: %d sheds but %d shed retries — a parked fetch was stranded", sc.Name, stats.Sheds, stats.ShedRetries)
	}
	// Hedge conservation: every speculative attempt launched terminated
	// exactly once, and no duplicate is still racing after every fetch
	// resolved. Asserted unconditionally — with hedging off every term
	// must be zero.
	if sum := stats.HedgeWins + stats.HedgeLosses + stats.HedgeSheds +
		stats.HedgeFails + stats.HedgeErrors; stats.Hedges != sum {
		fail("chaos %s: %d hedges launched but %d terminated (wins=%d losses=%d sheds=%d fails=%d errors=%d) — a speculative attempt leaked",
			sc.Name, stats.Hedges, sum, stats.HedgeWins, stats.HedgeLosses,
			stats.HedgeSheds, stats.HedgeFails, stats.HedgeErrors)
	}
	if out := merger.FlowState().HedgeOutstanding; out != 0 {
		fail("chaos %s: %d hedge budget slots still held after every fetch resolved", sc.Name, out)
	}
	if sc.Flow != nil {
		for i, s := range suppliers {
			if err := awaitLedgerDrain(s); err != nil {
				fail("chaos %s: supplier %d: %v", sc.Name, i, err)
			}
		}
	}

	// Scenario-specific expectations.
	if sc.WantCorrupt && stats.CorruptFrames == 0 {
		fail("chaos %s: expected corrupt frames to be detected, counter is zero", sc.Name)
	}
	if sc.WantDeadline && stats.DeadlineTrips == 0 {
		fail("chaos %s: expected the fetch deadline to trip, counter is zero", sc.Name)
	}
	if sc.WantHedges && stats.Hedges == 0 {
		fail("chaos %s: expected speculative duplicates to launch, hedge counter is zero", sc.Name)
	}
	if sc.WantRerouted && stats.Rerouted == 0 {
		fail("chaos %s: expected retries to rotate to a replica, reroute counter is zero", sc.Name)
	}
	if total := totalFaults(sched.Stats()); total < sc.MinFaults {
		fail("chaos %s: schedule injected %d faults, scenario requires >= %d (%+v)",
			sc.Name, total, sc.MinFaults, sched.Stats())
	}

	// Invariant 2 — zero goroutine leaks after full teardown.
	if err := merger.Close(); err != nil {
		fail("chaos %s: merger close: %v", sc.Name, err)
	}
	for i, s := range suppliers {
		if err := s.Close(); err != nil {
			fail("chaos %s: supplier %d close: %v", sc.Name, i, err)
		}
	}
	if err := snap.Check(0); err != nil {
		fail("chaos %s: %v", sc.Name, err)
	}
	// ... and zero pooled buffers: every receive lease, every partial
	// reassembly an interrupted attempt left behind, every staged segment.
	if err := bufpool.Default().LeakCheck(); err != nil {
		fail("chaos %s: %v", sc.Name, err)
	}

	if !failed {
		t.Logf("chaos %s: seed=%d specs=%d retries=%d sheds=%d corrupt=%d deadline=%d hedges=%d/%dw rerouted=%d faults=%+v",
			sc.Name, sc.Seed, len(specs), stats.Retries, stats.Sheds, stats.CorruptFrames,
			stats.DeadlineTrips, stats.Hedges, stats.HedgeWins, stats.Rerouted, sched.Stats())
	}
}

// awaitHedgeSettle waits for every launched speculative attempt to reach
// a terminal state and every hedge budget slot to come home. Fetch
// results are delivered before the race's loser is unwound, so a caller
// returning from Fetch can observe the counters a beat early.
func awaitHedgeSettle(m *core.NetMerger) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := m.Stats()
		settled := st.Hedges == st.HedgeWins+st.HedgeLosses+st.HedgeSheds+st.HedgeFails+st.HedgeErrors
		if settled && m.FlowState().HedgeOutstanding == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("hedge races never settled: %d launched, %d terminated, %d budget slots held",
				st.Hedges, st.HedgeWins+st.HedgeLosses+st.HedgeSheds+st.HedgeFails+st.HedgeErrors,
				m.FlowState().HedgeOutstanding)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// buildFixture writes the scenario's MOFs with seed-derived contents and
// returns the supplier lookup plus the full spec list (Addr unset).
func buildFixture(t TB, dir string, sc Scenario) (core.LookupFunc, []core.FetchSpec) {
	t.Helper()
	rng := rand.New(rand.NewPCG(sc.Seed, 0))
	paths := make(map[string][2]string, sc.Tasks)
	var specs []core.FetchSpec
	// Records sized so each segment lands near SegBytes.
	const recBytes = 512
	recs := sc.SegBytes / recBytes
	if recs == 0 {
		recs = 1
	}
	for i := 0; i < sc.Tasks; i++ {
		task := fmt.Sprintf("m-%05d", i)
		data := filepath.Join(dir, task+".data")
		index := filepath.Join(dir, task+".index")
		w, err := mof.NewWriter(data, index, sc.Parts)
		if err != nil {
			t.Fatalf("chaos %s: mof writer: %v", sc.Name, err)
		}
		val := make([]byte, recBytes)
		for p := 0; p < sc.Parts; p++ {
			if err := w.BeginSegment(p); err != nil {
				t.Fatalf("chaos %s: begin segment: %v", sc.Name, err)
			}
			for r := 0; r < recs; r++ {
				for b := range val {
					val[b] = byte(rng.Uint64())
				}
				key := fmt.Sprintf("%s-p%d-k%04d", task, p, r)
				if err := w.Append([]byte(key), val); err != nil {
					t.Fatalf("chaos %s: append: %v", sc.Name, err)
				}
			}
			specs = append(specs, core.FetchSpec{MapTask: task, Partition: p})
		}
		if err := w.Close(); err != nil {
			t.Fatalf("chaos %s: close mof: %v", sc.Name, err)
		}
		paths[task] = [2]string{data, index}
	}
	lookup := func(task string) (string, string, error) {
		p, ok := paths[task]
		if !ok {
			return "", "", fmt.Errorf("no MOF %s", task)
		}
		return p[0], p[1], nil
	}
	return lookup, specs
}

func refKey(s core.FetchSpec) string {
	return fmt.Sprintf("%s/%d", s.MapTask, s.Partition)
}

// referenceRun fetches every spec over the plain transport and returns
// the delivered bytes per spec. Any failure here is a broken fixture,
// not an interesting chaos outcome.
func referenceRun(t TB, sc Scenario, tcp transport.Transport, specs []core.FetchSpec) map[string][]byte {
	t.Helper()
	m, err := core.NewNetMerger(core.MergerConfig{Transport: tcp, WindowPerNode: 2})
	if err != nil {
		t.Fatalf("chaos %s: reference merger: %v", sc.Name, err)
	}
	defer m.Close()
	ref := make(map[string][]byte, len(specs))
	var mu sync.Mutex
	err = m.Fetch(specs, func(spec core.FetchSpec, data []byte) error {
		mu.Lock()
		ref[refKey(spec)] = bytes.Clone(data) // lent only until deliver returns
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatalf("chaos %s: fault-free reference run failed: %v", sc.Name, err)
	}
	if len(ref) != len(specs) {
		t.Fatalf("chaos %s: reference run delivered %d of %d specs", sc.Name, len(ref), len(specs))
	}
	return ref
}

// runFetches issues one Fetch per spec from a small worker pool, so
// per-spec outcomes stay independent (a Fetch batch stops delivering
// after its first error) while the merger still sees concurrent load.
// Workers communicate only through channels — no testing calls off the
// test goroutine (see jbsvet's testgoroutine check).
//
//jbsvet:ignore closeflow the workers borrow m and are joined before return; the caller closes it
func runFetches(m *core.NetMerger, specs []core.FetchSpec, workers int) []outcome {
	in := make(chan core.FetchSpec)
	out := make(chan outcome, len(specs))
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for spec := range in {
				var data []byte
				delivered := false
				err := m.Fetch([]core.FetchSpec{spec}, func(_ core.FetchSpec, b []byte) error {
					data, delivered = bytes.Clone(b), true // lent only until deliver returns
					return nil
				})
				if err == nil && !delivered {
					err = fmt.Errorf("chaos: fetch returned without delivering or failing")
				}
				out <- outcome{spec: spec, data: data, err: err}
			}
		}()
	}
	for _, s := range specs {
		in <- s
	}
	close(in)
	wg.Wait()
	close(out)
	res := make([]outcome, 0, len(specs))
	for o := range out {
		res = append(res, o)
	}
	return res
}

// awaitLedgerDrain waits for the supplier's admission ledger to return
// to zero resident bytes: every admitted byte was released. The release
// happens on the transmit worker after the last chunk is sent, so it can
// trail the merger-side completion by a scheduler beat.
func awaitLedgerDrain(s *core.MOFSupplier) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := s.FlowState()
		if st.Ledger == nil {
			return fmt.Errorf("supplier reports no admission ledger")
		}
		if st.Ledger.Used == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("admission ledger never drained: %d bytes still admitted (conservation violation)", st.Ledger.Used)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// totalFaults sums a schedule's injected-fault counters.
func totalFaults(f faultnet.Stats) int64 {
	return f.Resets + f.Truncations + f.Corruptions + f.Delays + f.Stalls +
		f.RefusedDials + f.BlackoutDenials
}
