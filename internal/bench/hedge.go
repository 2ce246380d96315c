package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/flow"
	"repro/internal/transport"
)

// HedgeTailConfig sizes the speculative-fetch tail-latency experiment:
// a replicated two-supplier topology where the primary suffers seeded
// slowness, measured with the hedging controller off and on.
type HedgeTailConfig struct {
	// Tasks x Parts segments of SegBytes each, fetched Rounds times by
	// Workers concurrent fetchers — every fetch individually timed.
	Tasks, Parts, SegBytes int
	Rounds                 int
	Workers                int
	// Seed drives every faultnet decision.
	Seed uint64
	// Stall profile: every DelayEvery-th frame on the primary's
	// connection is held Delay before delivery — a rare, long pause on a
	// node that otherwise looks healthy, the signature tail-latency
	// fault hedging exists for.
	DelayEvery int
	Delay      time.Duration
	// Blackout profile: the primary is unreachable (dials refused,
	// in-flight operations failed) during [BlackoutFrom, BlackoutTo)
	// of the run. Recovery here comes from the replica-rotation retry
	// path; the armed hedge must stay out of the way.
	BlackoutFrom, BlackoutTo time.Duration
	// FetchTimeout bounds the no-hedge runs: it is the only thing that
	// can unstick a fetch when there is no replica to race.
	FetchTimeout time.Duration
	// Threshold is the hedge baseline — how long a fetch may outlive its
	// send before a duplicate races a replica.
	Threshold time.Duration
}

// DefaultHedgeTailConfig returns the laptop-scale scenario recorded in
// EXPERIMENTS.md ("Hedged fetching under seeded stalls").
func DefaultHedgeTailConfig() HedgeTailConfig {
	return HedgeTailConfig{
		Tasks:        6,
		Parts:        4,
		SegBytes:     32 << 10,
		Rounds:       25,
		Workers:      3,
		Seed:         42,
		DelayEvery:   500,
		Delay:        400 * time.Millisecond,
		BlackoutFrom: 50 * time.Millisecond,
		BlackoutTo:   300 * time.Millisecond,
		FetchTimeout: 1500 * time.Millisecond,
		Threshold:    20 * time.Millisecond,
	}
}

// ShortHedgeTailConfig is the CI smoke configuration: a smaller grid and
// fewer rounds, still enough frames for the stall profile to hold some.
func ShortHedgeTailConfig() HedgeTailConfig {
	cfg := DefaultHedgeTailConfig()
	cfg.Tasks = 4
	cfg.Rounds = 10
	return cfg
}

// HedgeTail measures fetch latency quantiles across four runs — the
// stall and blackout fault profiles, each with hedging off (the plain
// single-path merger) and on (replica set + hedging controller). The
// headline is the p99.9 cut hedging buys under stalls and the duplicate
// bytes it pays for it.
func HedgeTail(cfg HedgeTailConfig) (*Report, error) {
	dir, err := os.MkdirTemp("", "jbs-hedge-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	lookup, specs, err := buildHedgeFixture(dir, cfg)
	if err != nil {
		return nil, err
	}

	rep := &Report{
		ID:     "hedge",
		Title:  "hedged fetching: tail latency and duplicate-byte cost under seeded primary faults",
		Header: []string{"profile", "hedging", "p50", "p99", "p99.9", "hedges", "wins", "dup bytes", "dup %"},
	}

	type profile struct {
		name   string
		faults func(primary string, s *faultnet.Schedule)
	}
	profiles := []profile{
		{"stall", func(primary string, s *faultnet.Schedule) {
			s.DelayFrame(cfg.Delay, cfg.DelayEvery).Node(primary)
		}},
		{"blackout", func(primary string, s *faultnet.Schedule) {
			s.Blackout(primary, cfg.BlackoutFrom, cfg.BlackoutTo)
		}},
	}

	var headline [2]hedgeRunResult // stall off/on, for the notes
	for _, pr := range profiles {
		for _, hedged := range []bool{false, true} {
			res, err := runHedgeTail(cfg, lookup, specs, pr.faults, hedged)
			if err != nil {
				return nil, fmt.Errorf("hedge %s (hedging %v): %w", pr.name, hedged, err)
			}
			if pr.name == "stall" {
				if hedged {
					if res.hedges == 0 {
						return nil, fmt.Errorf("hedge stall (hedging on): no hedge launched, so the run measured nothing")
					}
					headline[1] = res
				} else {
					headline[0] = res
				}
			}
			mode := "off"
			if hedged {
				mode = "on"
			}
			rep.AddRow(pr.name, mode,
				fmtDur(res.p50), fmtDur(res.p99), fmtDur(res.p999),
				fmt.Sprintf("%d", res.hedges), fmt.Sprintf("%d", res.wins),
				fmt.Sprintf("%d", res.dupBytes),
				fmt.Sprintf("%.1f%%", 100*float64(res.dupBytes)/float64(res.delivered)))
		}
	}

	if headline[1].p999 > 0 {
		rep.AddNote("stall profile: hedging cuts fetch p99.9 %.1fx (%v -> %v) for %.1f%% duplicate bytes",
			float64(headline[0].p999)/float64(headline[1].p999),
			headline[0].p999.Round(time.Millisecond), headline[1].p999.Round(time.Millisecond),
			100*float64(headline[1].dupBytes)/float64(headline[1].delivered))
	}
	rep.AddNote("blackout recovery is the replica-rotation retry path: dial failures never live long enough to trip the hedge threshold")
	return rep, nil
}

// hedgeRunResult is one sub-run's measured outcome.
type hedgeRunResult struct {
	p50, p99, p999 time.Duration
	hedges, wins   int64
	dupBytes       int64
	delivered      int64
}

// runHedgeTail executes one fault-profile sub-run: two suppliers over
// the shared fixture, a merger dialing the primary through the seeded
// schedule, every fetch timed individually. With hedged set, the merger
// knows the replica set and arms the hedging controller; without it,
// the merger is the plain single-path pipeline this PR started from.
func runHedgeTail(cfg HedgeTailConfig, lookup core.LookupFunc, specs []core.FetchSpec,
	faults func(string, *faultnet.Schedule), hedged bool) (hedgeRunResult, error) {

	tcp := transport.NewTCP()
	var suppliers []*core.MOFSupplier
	defer func() {
		for _, s := range suppliers {
			s.Close()
		}
	}()
	addrs := make([]string, 2)
	for i := range addrs {
		s, err := core.NewMOFSupplier(core.SupplierConfig{
			Transport:      tcp,
			Addr:           "127.0.0.1:0",
			BufferSize:     4 << 10, // several frames per segment: mid-stream faults have a stream
			DataCacheBytes: 64 << 20,
		}, lookup)
		if err != nil {
			return hedgeRunResult{}, err
		}
		suppliers = append(suppliers, s)
		addrs[i] = s.Addr()
	}
	runSpecs := make([]core.FetchSpec, len(specs))
	copy(runSpecs, specs)
	for i := range runSpecs {
		runSpecs[i].Addr = addrs[0]
	}

	sched := faultnet.NewSchedule(cfg.Seed)
	faults(addrs[0], sched)
	mc := core.MergerConfig{
		Transport:    faultnet.Wrap(tcp, sched),
		MaxRetries:   12,
		FetchTimeout: cfg.FetchTimeout,
	}
	if hedged {
		replicaSet := append([]string(nil), addrs...)
		mc.Replicas = func(core.FetchSpec) []string { return replicaSet }
		mc.Hedge = &flow.HedgeConfig{Baseline: cfg.Threshold}
	}
	m, err := core.NewNetMerger(mc)
	if err != nil {
		return hedgeRunResult{}, err
	}
	defer m.Close()

	// One timed Fetch per spec per round, from a small worker pool.
	var samples []time.Duration
	var delivered int64
	var mu sync.Mutex
	var firstErr error
	in := make(chan core.FetchSpec)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for spec := range in {
				start := time.Now()
				var n int
				err := m.Fetch([]core.FetchSpec{spec}, func(_ core.FetchSpec, b []byte) error {
					n = len(b)
					return nil
				})
				d := time.Since(start)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				samples = append(samples, d)
				delivered += int64(n)
				mu.Unlock()
			}
		}()
	}
	for r := 0; r < cfg.Rounds; r++ {
		for _, s := range runSpecs {
			in <- s
		}
	}
	close(in)
	wg.Wait()
	if firstErr != nil {
		return hedgeRunResult{}, firstErr
	}

	// Let decided races finish their loser bookkeeping before reading the
	// hedge counters (results outrun the cancel by a scheduler beat). A
	// ledger that never balances is a lost or doubled hedge outcome.
	deadline := time.Now().Add(2 * time.Second)
	var st core.MergerStats
	for {
		st = m.Stats()
		settled := st.HedgeWins + st.HedgeLosses + st.HedgeSheds + st.HedgeFails + st.HedgeErrors
		if st.Hedges == settled {
			break
		}
		if time.Now().After(deadline) {
			return hedgeRunResult{}, fmt.Errorf("hedge ledger unsettled after 2s: %d hedges, %d wins + losses + sheds + fails + errors",
				st.Hedges, settled)
		}
		time.Sleep(2 * time.Millisecond)
	}

	return hedgeRunResult{
		p50:       percentile(samples, 0.50),
		p99:       percentile(samples, 0.99),
		p999:      percentile(samples, 0.999),
		hedges:    st.Hedges,
		wins:      st.HedgeWins,
		dupBytes:  st.HedgeDupBytes,
		delivered: delivered,
	}, nil
}

// buildHedgeFixture writes the Tasks x Parts MOF grid once; both
// suppliers serve it, which is the replicated-MOF layout.
func buildHedgeFixture(dir string, cfg HedgeTailConfig) (core.LookupFunc, []core.FetchSpec, error) {
	paths := map[string][2]string{}
	var specs []core.FetchSpec
	for i := 0; i < cfg.Tasks; i++ {
		task := fmt.Sprintf("m-%03d", i)
		data := filepath.Join(dir, task+".data")
		index := filepath.Join(dir, task+".index")
		if err := writeSizedMOF(data, index, cfg.Parts, cfg.SegBytes); err != nil {
			return nil, nil, err
		}
		paths[task] = [2]string{data, index}
		for p := 0; p < cfg.Parts; p++ {
			specs = append(specs, core.FetchSpec{MapTask: task, Partition: p})
		}
	}
	lookup := func(task string) (string, string, error) {
		p, ok := paths[task]
		if !ok {
			return "", "", fmt.Errorf("no MOF %s", task)
		}
		return p[0], p[1], nil
	}
	return lookup, specs, nil
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}
