package chaos

import (
	"flag"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/faultnet"
	"repro/internal/flow"
	"repro/internal/leakcheck"
)

// TestMain doubles as the process-chaos supplier entry point: the
// process-level scenarios re-exec this test binary with JBS_CHAOS_PROC
// set, turning it into a real standalone supplier daemon the parent
// can SIGKILL and restart (see proc_test.go).
func TestMain(m *testing.M) {
	if os.Getenv("JBS_CHAOS_PROC") == "supplier" {
		procSupplierMain()
		return
	}
	// Every scenario runs with released pool buffers overwritten: bytes
	// the merger hands over must be whole when deliver sees them, and
	// nothing may read them once they are given back.
	bufpool.PoisonReleased(true)
	leakcheck.Main(m)
}

// seedFlag replays a failing scenario: the harness prints the exact
// command on failure, e.g.
//
//	go test ./internal/chaos -run 'TestChaosScenarios/bit-flip' -seed=1234 -v
var seedFlag = flag.Uint64("seed", 0, "override every scenario's seed (for reproducing a failed chaos run)")

// scenarios is the chaos suite: each entry is one seeded fault schedule
// the shuffle must survive with byte-identical output, zero goroutine
// leaks, and conserved accounting. All run in -short mode (CI).
func scenarios() []Scenario {
	return []Scenario{
		{
			Name: "clean-baseline",
			Seed: 101,
			// No faults: the harness itself must hold its invariants on a
			// healthy fabric before the fault scenarios mean anything.
		},
		{
			Name: "reset-mid-stream",
			Seed: 202,
			Faults: func(addr string, s *faultnet.Schedule) {
				// The first connection dies after 12 KiB — mid-segment with
				// 4 KiB chunks — so in-flight fetches fail over to a fresh
				// connection without double-counting window slots.
				s.ResetAfter(12 << 10).Times(1)
			},
			MinFaults: 1,
		},
		{
			Name: "reset-storm",
			Seed: 303,
			Faults: func(addr string, s *faultnet.Schedule) {
				// Three consecutive connections die after 8 KiB each: the
				// retry budget absorbs repeated interruptions of the same
				// fetches.
				s.ResetAfter(8 << 10).Times(3)
			},
			MaxRetries: 8,
			MinFaults:  3,
		},
		{
			Name: "partial-write",
			Seed: 404,
			Faults: func(addr string, s *faultnet.Schedule) {
				// The second frame arrives truncated to half its length and
				// the stream dies: the CRC32C checksum must reject the half
				// frame rather than let it poison reassembly.
				s.TruncateFrame(2).Times(1)
			},
			WantCorrupt: true,
			MinFaults:   1,
		},
		{
			Name: "bit-flip",
			Seed: 505,
			Faults: func(addr string, s *faultnet.Schedule) {
				// One bit flips in the first connection's fourth frame. The
				// connection itself stays healthy — only the checksum can
				// catch this — and the damaged segment must be transparently
				// re-fetched (byte identity proves it).
				s.CorruptFrame(4).Times(1)
			},
			WantCorrupt: true,
			MinFaults:   1,
		},
		{
			Name: "stalled-read",
			Seed: 606,
			Faults: func(addr string, s *faultnet.Schedule) {
				// The first connection stops responding at its second frame
				// while staying open: no transport error will ever surface,
				// so only the fetch deadline watchdog can unstick it.
				s.StallFrame(2).Times(1)
			},
			FetchTimeout: 300 * time.Millisecond,
			WantDeadline: true,
			MinFaults:    1,
		},
		{
			Name: "dial-refused",
			Seed: 707,
			Faults: func(addr string, s *faultnet.Schedule) {
				// The first two dial attempts are refused outright: retry
				// backoff must probe gently instead of burning the budget in
				// a tight loop.
				s.RefuseDials().Times(2)
			},
			MinFaults: 2,
		},
		{
			Name: "blackout-window",
			Seed: 808,
			Faults: func(addr string, s *faultnet.Schedule) {
				// The supplier node is unreachable for the first 150ms of
				// the run; exponential backoff must carry fetches across the
				// window.
				s.Blackout(addr, 0, 150*time.Millisecond)
			},
			MaxRetries: 12,
			MinFaults:  1,
		},
		{
			Name: "jittery-net",
			Seed: 909,
			Faults: func(addr string, s *faultnet.Schedule) {
				// Every second frame on the first two connections is delayed
				// 3ms: reordering pressure and RTT noise, no failures.
				s.DelayFrame(3*time.Millisecond, 2).Times(2)
			},
			MinFaults: 1,
		},
		{
			Name: "shed-under-reset",
			Seed: 1010,
			Faults: func(addr string, s *faultnet.Schedule) {
				// Connection resets while the supplier is shedding under a
				// tiny admission budget: retry-after parking and failure
				// retry must not double-count each other's window slots.
				s.ResetAfter(10 << 10).Times(2)
			},
			Flow: &flow.Config{
				AdmitBytes: 16 << 10,
				QueueBytes: 8 << 10,
				RetryAfter: 3 * time.Millisecond,
			},
			MaxRetries: 8,
			MinFaults:  1,
		},
		{
			Name: "mixed-chaos",
			Seed: 1111,
			Faults: func(addr string, s *faultnet.Schedule) {
				// Everything at once, probabilistically: the closest thing
				// to a real bad day. The seed pins which connections draw
				// which faults.
				s.ResetAfter(20 << 10).Prob(0.5)
				s.CorruptFrame(5).Prob(0.5).Times(2)
				s.DelayFrame(2*time.Millisecond, 3).Prob(0.5)
				s.RefuseDials().Times(1)
			},
			MaxRetries: 10,
			MinFaults:  1,
		},
		{
			Name: "all-dials-refused",
			Seed: 1212,
			Faults: func(addr string, s *faultnet.Schedule) {
				// The node is gone and never comes back: every fetch must
				// fail cleanly — errors surfaced, accounting conserved, no
				// goroutine left behind.
				s.RefuseDials()
			},
			MaxRetries:   2,
			RetryBackoff: time.Millisecond,
			WantErrors:   true,
			MinFaults:    1,
		},
	}
}

// TestChaosScenarios runs the full chaos suite. Every scenario runs in
// -short mode; CI runs exactly this.
func TestChaosScenarios(t *testing.T) {
	for _, sc := range scenarios() {
		sc := sc
		if *seedFlag != 0 {
			sc.Seed = *seedFlag
		}
		// Scenarios run serially: each takes its own goroutine-leak
		// snapshot, and a parallel sibling's goroutines would read as
		// leaks.
		t.Run(sc.Name, func(t *testing.T) { Run(t, sc) })
	}
}

// TestChaosSeedSweep stretches mixed-chaos across extra seeds in long
// mode, hunting interleavings the fixed suite seeds miss.
func TestChaosSeedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep runs in long mode only")
	}
	base := scenarios()
	var mixed Scenario
	for _, sc := range base {
		if sc.Name == "mixed-chaos" {
			mixed = sc
			break
		}
	}
	for i := uint64(1); i <= 8; i++ {
		sc := mixed
		sc.Seed = mixed.Seed*1000 + i
		sc.Name = fmt.Sprintf("mixed-chaos-sweep-%d", i)
		if *seedFlag != 0 {
			sc.Seed = *seedFlag
		}
		t.Run(sc.Name, func(t *testing.T) { Run(t, sc) })
	}
}
