package core

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/transport"
)

// hedgeTestSupplier is a hand-rolled supplier with one fixed behavior
// per instance — serve (after an optional delay), or stall forever —
// plus CANCEL-frame accounting. Hedge tests pair two of these (a
// primary and a replica) with different behaviors to decide races
// deterministically; the per-occurrence scriptedSupplier cannot, since
// a hedge attempt arrives under a fresh request id.
type hedgeTestSupplier struct {
	lis     transport.Listener
	payload []byte
	serve   bool          // false: stall (swallow requests, conn stays open)
	delay   time.Duration // serve delay; 0 serves immediately

	wg      sync.WaitGroup
	cancels atomic.Int64 // CANCEL frames received
	served  atomic.Int64 // segments fully transmitted
}

func newHedgeTestSupplier(t *testing.T, payload []byte, serve bool, delay time.Duration) *hedgeTestSupplier {
	t.Helper()
	poolBalanced(t)
	lis, err := transport.NewTCP().Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &hedgeTestSupplier{lis: lis, payload: payload, serve: serve, delay: delay}
	s.wg.Add(1)
	go s.acceptLoop()
	t.Cleanup(func() { lis.Close(); s.wg.Wait() })
	return s
}

func (s *hedgeTestSupplier) Addr() string { return s.lis.Addr() }

func (s *hedgeTestSupplier) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *hedgeTestSupplier) serveConn(conn transport.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	for {
		msg, err := conn.Recv()
		if err != nil {
			return
		}
		if len(msg) > 0 && msg[0] == msgCancel {
			if _, err := decodeCancel(msg); err == nil {
				s.cancels.Add(1)
			}
			continue
		}
		req, err := decodeFetchRequest(msg)
		if err != nil {
			return
		}
		if !s.serve {
			continue // stall: the request is swallowed, the conn stays up
		}
		if s.delay > 0 {
			time.Sleep(s.delay)
		}
		chunk := encodeDataChunk(dataChunk{
			ID: req.ID, Last: true, Sized: true,
			Total: int64(len(s.payload)), Payload: s.payload,
		})
		if conn.Send(chunk) != nil {
			return
		}
		s.served.Add(1)
	}
}

// waitFor polls cond every millisecond until it holds or the deadline
// passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// attemptIn reports whether attempt id is live in state s. Callers hold
// m.mu.
func attemptIn(m *NetMerger, id uint64, s attemptState) bool {
	p := m.live[id]
	return p != nil && p.state == s
}

// attemptsIn counts m's live attempts in state s. Callers hold m.mu.
func attemptsIn(m *NetMerger, s attemptState) int {
	n := 0
	for _, p := range m.live {
		if p.state == s {
			n++
		}
	}
	return n
}

// checkHedgeConservation asserts the controller's conservation law:
// every launched speculative attempt reached exactly one terminal state.
func checkHedgeConservation(t *testing.T, st MergerStats) {
	t.Helper()
	terminal := st.HedgeWins + st.HedgeLosses + st.HedgeSheds + st.HedgeFails + st.HedgeErrors
	if st.Hedges != terminal {
		t.Errorf("hedge conservation violated: %d launched, %d terminal (stats %+v)", st.Hedges, terminal, st)
	}
}

// hedgeMerger builds a merger hedging between primary and replica with
// a cold-start Baseline threshold (no RTT samples needed to arm).
func hedgeMerger(t *testing.T, primary, replica string, mutate func(*MergerConfig)) *NetMerger {
	t.Helper()
	cfg := MergerConfig{
		Transport:    transport.NewTCP(),
		MaxRetries:   2,
		RetryBackoff: time.Millisecond,
		FetchTimeout: 2 * time.Second,
		Replicas: func(FetchSpec) []string {
			return []string{primary, replica}
		},
		Hedge: &flow.HedgeConfig{Baseline: 15 * time.Millisecond},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	m, err := NewNetMerger(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// TestHedgeWinsOnStalledPrimary is the controller's reason to exist: a
// primary that accepts the request and never responds is out-raced by a
// replica long before the deadline watchdog would have failed it over.
func TestHedgeWinsOnStalledPrimary(t *testing.T) {
	payload := bytes.Repeat([]byte("hedge-wins-segment-"), 64)
	primary := newHedgeTestSupplier(t, payload, false, 0)
	replica := newHedgeTestSupplier(t, payload, true, 0)
	m := hedgeMerger(t, primary.Addr(), replica.Addr(), nil)

	var got []byte
	start := time.Now()
	err := m.Fetch([]FetchSpec{{Addr: primary.Addr(), MapTask: "m-00000", Partition: 0}},
		func(_ FetchSpec, data []byte) error { got = bytes.Clone(data); return nil })
	if err != nil {
		t.Fatalf("hedged fetch failed: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("delivered %d bytes, want the %d-byte payload", len(got), len(payload))
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("fetch took %v: the hedge, not the watchdog, must have won", elapsed)
	}
	st := m.Stats()
	if st.Hedges != 1 || st.HedgeWins != 1 {
		t.Fatalf("Hedges/HedgeWins = %d/%d, want 1/1 (stats %+v)", st.Hedges, st.HedgeWins, st)
	}
	if st.DeadlineTrips != 0 || st.Retries != 0 || st.Errors != 0 || st.Sheds != 0 {
		t.Fatalf("hedge win must not touch watchdog/retry/shed accounting: %+v", st)
	}
	checkHedgeConservation(t, st)
	if out := m.FlowState().HedgeOutstanding; out != 0 {
		t.Fatalf("HedgeOutstanding = %d after the race resolved, want 0", out)
	}
	// The stalled loser holds the request on the wire: it must have been
	// told to stop.
	waitFor(t, time.Second, "CANCEL at the losing primary", func() bool {
		return primary.cancels.Load() == 1
	})
}

// TestHedgeLoserLateDeliveryAccounting decides the race for the replica
// while the primary is merely slow: the primary's late delivery must
// land in the duplicate-byte ledger (not in the fetch), its tracking
// entry must retire on the terminal chunk, and the merger must remain
// fully serviceable afterwards.
func TestHedgeLoserLateDeliveryAccounting(t *testing.T) {
	payload := bytes.Repeat([]byte("late-loser-segment-"), 64)
	primary := newHedgeTestSupplier(t, payload, true, 80*time.Millisecond)
	replica := newHedgeTestSupplier(t, payload, true, 0)
	m := hedgeMerger(t, primary.Addr(), replica.Addr(), nil)

	var got []byte
	err := m.Fetch([]FetchSpec{{Addr: primary.Addr(), MapTask: "m-00000", Partition: 0}},
		func(_ FetchSpec, data []byte) error { got = bytes.Clone(data); return nil })
	if err != nil {
		t.Fatalf("hedged fetch failed: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("delivered %d bytes, want the %d-byte payload", len(got), len(payload))
	}
	st := m.Stats()
	if st.Hedges != 1 || st.HedgeWins != 1 {
		t.Fatalf("Hedges/HedgeWins = %d/%d, want 1/1 (stats %+v)", st.Hedges, st.HedgeWins, st)
	}
	// The loser's delivery arrives ~80ms in; every payload byte of it is
	// hedging cost, booked against the duplicate ledger.
	waitFor(t, 2*time.Second, "loser's late bytes in the duplicate ledger", func() bool {
		return m.Stats().HedgeDupBytes >= int64(len(payload))
	})
	if st := m.Stats(); st.BytesFetched != int64(len(payload)) {
		t.Fatalf("BytesFetched = %d, want exactly one payload (%d); the loser's copy must not count", st.BytesFetched, len(payload))
	}
	// The terminal chunk retires the loser-tracking entry.
	waitFor(t, time.Second, "loser tracking entry retired", func() bool {
		m.mu.Lock()
		defer m.mu.Unlock()
		return attemptsIn(m, lost) == 0
	})
	// Slot/ledger accounting intact: a follow-up fetch (no hedge pressure
	// on the now-sampled node) must run clean.
	err = m.Fetch([]FetchSpec{{Addr: replica.Addr(), MapTask: "m-00001", Partition: 0}},
		func(_ FetchSpec, data []byte) error { return nil })
	if err != nil {
		t.Fatalf("follow-up fetch failed (slot accounting corrupt?): %v", err)
	}
	checkHedgeConservation(t, m.Stats())
	if out := m.FlowState().HedgeOutstanding; out != 0 {
		t.Fatalf("HedgeOutstanding = %d at rest, want 0", out)
	}
}

// TestHedgeLosesWhenPrimaryDelivers runs the race the other way: the
// speculative attempt goes to a stalled replica and the original wins.
// The loser is a cancelled speculative attempt — a HedgeLoss — and the
// replica gets the CANCEL.
func TestHedgeLosesWhenPrimaryDelivers(t *testing.T) {
	payload := bytes.Repeat([]byte("primary-wins-segment-"), 64)
	primary := newHedgeTestSupplier(t, payload, true, 50*time.Millisecond)
	replica := newHedgeTestSupplier(t, payload, false, 0)
	m := hedgeMerger(t, primary.Addr(), replica.Addr(), nil)

	var got []byte
	err := m.Fetch([]FetchSpec{{Addr: primary.Addr(), MapTask: "m-00000", Partition: 0}},
		func(_ FetchSpec, data []byte) error { got = bytes.Clone(data); return nil })
	if err != nil {
		t.Fatalf("fetch failed: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("delivered %d bytes, want the %d-byte payload", len(got), len(payload))
	}
	st := m.Stats()
	if st.Hedges != 1 || st.HedgeLosses != 1 || st.HedgeWins != 0 {
		t.Fatalf("Hedges/HedgeLosses/HedgeWins = %d/%d/%d, want 1/1/0 (stats %+v)",
			st.Hedges, st.HedgeLosses, st.HedgeWins, st)
	}
	checkHedgeConservation(t, st)
	if out := m.FlowState().HedgeOutstanding; out != 0 {
		t.Fatalf("HedgeOutstanding = %d after the race resolved, want 0", out)
	}
	waitFor(t, time.Second, "CANCEL at the losing replica", func() bool {
		return replica.cancels.Load() == 1
	})
}

// TestHedgeBudgetExhaustionDenies pins the overload-degradation rule:
// with the duplicate budget exhausted, further threshold trips are
// denied (counted once per fetch) instead of amplifying load, and the
// denied fetches stay covered by the ordinary retry machinery.
func TestHedgeBudgetExhaustionDenies(t *testing.T) {
	payload := bytes.Repeat([]byte("budget-denied-segment-"), 64)
	primary := newHedgeTestSupplier(t, payload, false, 0)
	replica := newHedgeTestSupplier(t, payload, false, 0)
	// Two fetches more than the budget, all in flight at once.
	const denied = 2
	m := hedgeMerger(t, primary.Addr(), replica.Addr(), func(cfg *MergerConfig) {
		cfg.WindowPerNode = maxHedgesOutstanding + denied
		cfg.MaxRetries = 0
	})

	var specs []FetchSpec
	for i := 0; i < maxHedgesOutstanding+denied; i++ {
		specs = append(specs, FetchSpec{Addr: primary.Addr(), MapTask: fmt.Sprintf("m-%05d", i)})
	}
	fetchErr := make(chan error, 1)
	go func() {
		fetchErr <- m.Fetch(specs, func(FetchSpec, []byte) error { return nil })
	}()
	// Every fetch stalls past its threshold; the budget's worth of hedges
	// race (to the equally stalled replica, so the slots stay held) and
	// the others are denied — once each, not once per scan.
	waitFor(t, 2*time.Second, "a full budget of hedges and at least one denial", func() bool {
		st := m.Stats()
		return st.Hedges == maxHedgesOutstanding && st.HedgeDenials >= 1
	})
	time.Sleep(20 * time.Millisecond) // a dozen more scans must not re-count
	st := m.Stats()
	if st.Hedges != maxHedgesOutstanding {
		t.Fatalf("Hedges = %d, want %d (budget cap breached)", st.Hedges, maxHedgesOutstanding)
	}
	if st.HedgeDenials > denied {
		t.Fatalf("HedgeDenials = %d for %d denied fetches: denial must count once per fetch, not per scan", st.HedgeDenials, denied)
	}
	if out := m.FlowState().HedgeOutstanding; out != maxHedgesOutstanding {
		t.Fatalf("HedgeOutstanding = %d, want the %d budgeted duplicates", out, maxHedgesOutstanding)
	}
	m.Close()
	if err := <-fetchErr; err == nil {
		t.Fatal("fetch of all-stalled suppliers succeeded after Close")
	}
	if out := m.FlowState().HedgeOutstanding; out != 0 {
		t.Fatalf("HedgeOutstanding = %d after Close, want 0 (budget leaked)", out)
	}
}

// TestWatchdogCoversUnhedgedFetch orders the two recovery mechanisms
// the other way: with the hedge threshold far beyond FetchTimeout the
// watchdog trips first, and the retry rotates to the replica —
// a stalled primary costs one attempt, not the whole budget.
func TestWatchdogCoversUnhedgedFetch(t *testing.T) {
	payload := bytes.Repeat([]byte("watchdog-first-segment-"), 64)
	primary := newHedgeTestSupplier(t, payload, false, 0)
	replica := newHedgeTestSupplier(t, payload, true, 0)
	m := hedgeMerger(t, primary.Addr(), replica.Addr(), func(cfg *MergerConfig) {
		cfg.FetchTimeout = 60 * time.Millisecond
		cfg.Hedge.Baseline = 10 * time.Second // never trips before the watchdog
	})

	var got []byte
	err := m.Fetch([]FetchSpec{{Addr: primary.Addr(), MapTask: "m-00000", Partition: 0}},
		func(_ FetchSpec, data []byte) error { got = bytes.Clone(data); return nil })
	if err != nil {
		t.Fatalf("fetch failed: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("delivered %d bytes, want the %d-byte payload", len(got), len(payload))
	}
	st := m.Stats()
	if st.Hedges != 0 {
		t.Fatalf("Hedges = %d, want 0 (threshold was beyond the watchdog)", st.Hedges)
	}
	if st.DeadlineTrips == 0 || st.Retries == 0 {
		t.Fatalf("watchdog/retry never fired: %+v", st)
	}
	if st.Rerouted == 0 {
		t.Fatalf("retry did not rotate to the replica: %+v", st)
	}
}

// TestHedgeShedGuards is the AIMD regression for hedged fetch ids: a
// shed naming one attempt of a racing pair must only ever shrink the
// shedding node's own window — never the twin's node, never after the
// race is decided — and must never enter the parked-shed conservation
// accounting (Sheds == ShedRetries) since a hedged-pair shed is
// cancelled, not parked.
func TestHedgeShedGuards(t *testing.T) {
	payload := bytes.Repeat([]byte("shed-guard-segment-"), 64)
	primary := newHedgeTestSupplier(t, payload, false, 0)
	replica := newHedgeTestSupplier(t, payload, false, 0)
	m := hedgeMerger(t, primary.Addr(), replica.Addr(), func(cfg *MergerConfig) {
		cfg.Flow = &flow.Config{} // AIMD windows on (start 4, min 1)
	})

	fetchErr := make(chan error, 1)
	go func() {
		fetchErr <- m.Fetch([]FetchSpec{{Addr: primary.Addr(), MapTask: "m-00000", Partition: 0}},
			func(FetchSpec, []byte) error { return nil })
	}()
	// Launched is not in flight: the duplicate waits in its node's queue
	// until the injector has sent it, and only then is it in pending.
	var hedgeID uint64
	waitFor(t, 2*time.Second, "the hedge attempt to be in flight", func() bool {
		m.mu.Lock()
		defer m.mu.Unlock()
		for _, p := range m.live {
			if p.isHedge && p.state == inFlight {
				hedgeID = p.id
			}
		}
		return hedgeID != 0
	})
	windowOf := func(addr string) int {
		t.Helper()
		for _, w := range m.FlowState().Windows {
			if w.Node == addr {
				return w.Size
			}
		}
		t.Fatalf("no window for %s", addr)
		return 0
	}

	// A shed naming the hedge id from the WRONG node (the primary never
	// owned that attempt) must be dropped whole: no window moves, the
	// attempt keeps racing.
	if err := m.handleFlowFrame(primary.Addr(), appendShed(nil, hedgeID, time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if got := windowOf(primary.Addr()); got != 4 {
		t.Fatalf("foreign shed shrank the primary window to %d, want untouched 4", got)
	}
	if st := m.Stats(); st.Sheds != 0 || st.HedgeSheds != 0 {
		t.Fatalf("foreign shed was counted: %+v", st)
	}

	// The replica shedding its own attempt shrinks only its own window;
	// the pair's shed is cancellation, not a park, so the Sheds ==
	// ShedRetries ledger stays untouched and the original races on.
	if err := m.handleFlowFrame(replica.Addr(), appendShed(nil, hedgeID, time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if got := windowOf(replica.Addr()); got != 2 {
		t.Fatalf("replica window = %d after its own shed, want halved 2", got)
	}
	if got := windowOf(primary.Addr()); got != 4 {
		t.Fatalf("twin's shed shrank the primary window to %d, want untouched 4", got)
	}
	st := m.Stats()
	if st.Sheds != 0 || st.ShedRetries != 0 {
		t.Fatalf("hedged-pair shed entered the parked-shed ledger: %+v", st)
	}
	if st.HedgeSheds != 1 {
		t.Fatalf("HedgeSheds = %d, want 1", st.HedgeSheds)
	}
	checkHedgeConservation(t, st)
	m.mu.Lock()
	origPending := attemptIn(m, hedgeID-1, inFlight)
	hedgePending := attemptIn(m, hedgeID, inFlight)
	parkedN := attemptsIn(m, parked)
	m.mu.Unlock()
	if hedgePending || parkedN != 0 {
		t.Fatalf("shed hedge attempt still pending=%v parked=%d, want cancelled outright", hedgePending, parkedN)
	}
	if !origPending {
		t.Fatal("original attempt vanished: the twin must race on after the hedge is shed")
	}

	// A late shed for an id whose race is fully decided (no pending
	// entry at all) is a no-op on every ledger and window.
	if err := m.handleFlowFrame(primary.Addr(), appendShed(nil, hedgeID, time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if got := windowOf(primary.Addr()); got != 4 {
		t.Fatalf("late shed for a decided race shrank the primary window to %d", got)
	}
	m.Close()
	<-fetchErr
}
