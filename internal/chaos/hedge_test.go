package chaos

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/flow"
)

// hedgeScenarios is the speculative-fetch chaos suite: replicated-MOF
// topologies where the hedging controller must cut tail latency without
// breaking any harness invariant — byte identity, conservation (now
// including the hedge ledger: every duplicate launched terminates
// exactly once), and zero goroutine leaks. Same seed-replay contract as
// the main suite.
func hedgeScenarios() []Scenario {
	// A sub-watchdog threshold: scenarios decide races by making one side
	// slow, not by tuning quantiles — the controller's quantile math has
	// its own unit tests (internal/flow).
	armed := func(threshold time.Duration) *flow.HedgeConfig {
		return &flow.HedgeConfig{Baseline: threshold}
	}
	return []Scenario{
		{
			Name:      "stalled-primary-hedge-wins",
			Seed:      2101,
			Suppliers: 2,
			FaultsAll: func(addrs []string, s *faultnet.Schedule) {
				// The primary's first connection freezes at its second frame
				// while staying open: no transport error ever surfaces, and
				// the 30s default fetch deadline is an eternity away. Only
				// the hedge threshold can rescue the run quickly — every
				// fetch must be raced to the replica and won there.
				s.StallFrame(2).Node(addrs[0]).Times(1)
			},
			Hedge:      armed(25 * time.Millisecond),
			WantHedges: true,
			MinFaults:  1,
		},
		{
			Name:      "blackout-primary-replica-fallback",
			Seed:      2202,
			Suppliers: 2,
			FaultsAll: func(addrs []string, s *faultnet.Schedule) {
				// The primary is unreachable for the first 150ms. Dials fail
				// fast, so fetches never live long enough to trip the hedge
				// threshold — recovery must come from the failure-retry path
				// rotating parked fetches onto the replica, with the armed
				// hedging controller staying out of the way.
				s.Blackout(addrs[0], 0, 150*time.Millisecond)
			},
			Hedge:        armed(25 * time.Millisecond),
			MaxRetries:   8,
			WantRerouted: true,
			MinFaults:    1,
		},
		{
			Name:      "both-replicas-corrupt-then-refetch",
			Seed:      2303,
			Suppliers: 2,
			FaultsAll: func(addrs []string, s *faultnet.Schedule) {
				// One bit flips on each node's first connection: whichever
				// copy a fetch reads, the CRC32C checksum rejects it, and the
				// retry rotation bounces between replicas until a clean
				// connection serves the segment. Byte identity proves every
				// damaged copy was re-fetched, never patched over.
				s.CorruptFrame(3).Node(addrs[0]).Times(1)
				s.CorruptFrame(3).Node(addrs[1]).Times(1)
			},
			Hedge:        armed(25 * time.Millisecond),
			MaxRetries:   8,
			WantCorrupt:  true,
			WantRerouted: true,
			MinFaults:    2,
		},
		{
			Name:      "hedge-racing-drain",
			Seed:      2404,
			Suppliers: 3,
			FaultsAll: func(addrs []string, s *faultnet.Schedule) {
				// The primary's first two connections stall, so every fetch
				// hedges toward the first backup — which is hard-closed 30ms
				// in, mid-race. Dead duplicates must terminate as fails (not
				// leak budget slots), and the originals must still converge
				// via deadline trips and rotation to the last healthy node.
				s.StallFrame(2).Node(addrs[0]).Times(2)
			},
			Hedge:         armed(20 * time.Millisecond),
			FetchTimeout:  400 * time.Millisecond,
			MaxRetries:    10,
			CloseAfter:    30 * time.Millisecond,
			CloseSupplier: 1,
			WantHedges:    true,
			MinFaults:     1,
		},
	}
}

// TestChaosHedgeScenarios runs the hedged-fetch chaos suite. All run in
// -short mode; CI runs exactly this via `make chaos-hedge`. Replay one
// with the same command the harness prints on failure:
//
//	go test ./internal/chaos -run 'TestChaos.*/stalled-primary-hedge-wins' -seed=2101 -v
func TestChaosHedgeScenarios(t *testing.T) {
	for _, sc := range hedgeScenarios() {
		sc := sc
		if *seedFlag != 0 {
			sc.Seed = *seedFlag
		}
		// Serial, like the main suite: each scenario owns its
		// goroutine-leak snapshot.
		t.Run(sc.Name, func(t *testing.T) { Run(t, sc) })
	}
}

// TestChaosHedgeSeedSweep stretches the stalled-primary race across
// extra seeds in long mode, hunting hedge/cancel interleavings the
// fixed suite seed misses.
func TestChaosHedgeSeedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep runs in long mode only")
	}
	base := hedgeScenarios()
	for i := uint64(1); i <= 8; i++ {
		sc := base[0]
		sc.Seed = sc.Seed*1000 + i
		sc.Name = fmt.Sprintf("stalled-primary-sweep-%d", i)
		if *seedFlag != 0 {
			sc.Seed = *seedFlag
		}
		t.Run(sc.Name, func(t *testing.T) { Run(t, sc) })
	}
}
