package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/mof"
	"repro/internal/transport"
)

// OverloadConfig sizes the multi-tenant overload scenario: a light job
// sharing one MOFSupplier with a heavy job whose partitions are Skew
// times larger.
type OverloadConfig struct {
	// LightTasks x LightParts segments of LightSegBytes each form the
	// latency-sensitive job.
	LightTasks    int
	LightParts    int
	LightSegBytes int
	// HeavyTasks x HeavyParts segments of LightSegBytes*Skew each form
	// the background bulk job.
	HeavyTasks int
	HeavyParts int
	Skew       int
	// Rounds is how many measurement passes the light job makes over its
	// segment list (each pass fetches every segment once, one at a time).
	Rounds int
	// AdmitBytes is the supplier's admission budget in the flow-enabled
	// scenario.
	AdmitBytes int64
}

// DefaultOverloadConfig returns the laptop-scale scenario: 512 KB of
// light traffic contending with 20 MB of 10x-skewed bulk traffic.
func DefaultOverloadConfig() OverloadConfig {
	return OverloadConfig{
		LightTasks:    4,
		LightParts:    4,
		LightSegBytes: 16 << 10,
		HeavyTasks:    8,
		HeavyParts:    8,
		Skew:          10,
		Rounds:        60,
		// Just below one skewed segment (160 KB + record framing): the
		// ledger's oversized-alone rule then serializes the bulk job to
		// one resident segment while light requests (16 KB) still fit in
		// the queue allowance beside it.
		AdmitBytes: 128 << 10,
	}
}

// Overload measures the light job's segment-fetch latency in three runs:
// alone, sharing the supplier with the heavy job under the paper's
// unmanaged pipeline, and sharing it with internal/flow enabled
// (admission ledger + AIMD windows + weighted deficit round-robin). It
// reports p50/p99 per run; the headline is the contended p99 relative to
// the solo baseline.
func Overload(cfg OverloadConfig) (*Report, error) {
	dir, err := os.MkdirTemp("", "jbs-overload-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	rig, err := newOverloadRig(dir, cfg)
	if err != nil {
		return nil, err
	}

	solo, err := rig.run(cfg, scenarioSolo)
	if err != nil {
		return nil, err
	}
	unmanaged, err := rig.run(cfg, scenarioUnmanaged)
	if err != nil {
		return nil, err
	}
	managed, err := rig.run(cfg, scenarioFlow)
	if err != nil {
		return nil, err
	}

	rep := &Report{
		ID:     "overload",
		Title:  "Multi-tenant overload: light-job fetch latency vs a 10x-skewed bulk job",
		Header: []string{"Scenario", "Light p50 (ms)", "Light p99 (ms)", "p99 vs solo", "Supplier sheds"},
	}
	base := solo.p99
	row := func(name string, r *overloadRun) {
		rep.AddRow(name,
			fmt.Sprintf("%.3f", r.p50.Seconds()*1e3),
			fmt.Sprintf("%.3f", r.p99.Seconds()*1e3),
			fmt.Sprintf("%.2fx", float64(r.p99)/float64(base)),
			fmt.Sprintf("%d", r.sheds))
	}
	row("light solo", solo)
	row("contended, flow disabled", unmanaged)
	row("contended, flow enabled", managed)
	rep.AddNote("flow control holds the light job's contended p99 to %.2fx its solo p99 (unmanaged: %.2fx)",
		float64(managed.p99)/float64(base), float64(unmanaged.p99)/float64(base))
	if managed.sheds > 0 {
		rep.AddNote("admission shed %d requests; every shed was retried and delivered (0 fetch errors)", managed.sheds)
	}
	return rep, nil
}

type overloadScenario int

const (
	scenarioSolo overloadScenario = iota
	scenarioUnmanaged
	scenarioFlow
)

type overloadRun struct {
	p50, p99 time.Duration
	sheds    int64
}

// overloadRig holds the on-disk MOFs (built once) and the fetch specs of
// both jobs. Each run stands up a fresh supplier and mergers so windows,
// caches, and the ledger start cold.
type overloadRig struct {
	lookup     func(string) (string, string, error)
	lightTasks []string
	heavyTasks []string
}

func newOverloadRig(dir string, cfg OverloadConfig) (*overloadRig, error) {
	r := &overloadRig{}
	paths := map[string][2]string{}
	build := func(prefix string, tasks, parts, segBytes int) ([]string, error) {
		var names []string
		for i := 0; i < tasks; i++ {
			task := fmt.Sprintf("%s-%05d", prefix, i)
			data := filepath.Join(dir, task+".data")
			index := filepath.Join(dir, task+".index")
			if err := writeSizedMOF(data, index, parts, segBytes); err != nil {
				return nil, err
			}
			paths[task] = [2]string{data, index}
			names = append(names, task)
		}
		return names, nil
	}
	var err error
	if r.lightTasks, err = build("light", cfg.LightTasks, cfg.LightParts, cfg.LightSegBytes); err != nil {
		return nil, err
	}
	if r.heavyTasks, err = build("heavy", cfg.HeavyTasks, cfg.HeavyParts, cfg.LightSegBytes*cfg.Skew); err != nil {
		return nil, err
	}
	r.lookup = func(task string) (string, string, error) {
		p, ok := paths[task]
		if !ok {
			return "", "", fmt.Errorf("bench: no MOF for task %s", task)
		}
		return p[0], p[1], nil
	}
	return r, nil
}

// writeSizedMOF writes one MOF whose every partition holds ~segBytes of
// records (1 KB values, distinct keys).
func writeSizedMOF(data, index string, parts, segBytes int) (err error) {
	w, err := mof.NewWriter(data, index, parts)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			w.Abort()
		}
	}()
	value := make([]byte, 1024)
	for i := range value {
		value[i] = byte('a' + i%26)
	}
	for p := 0; p < parts; p++ {
		if err := w.BeginSegment(p); err != nil {
			return err
		}
		for written := 0; written < segBytes; written += len(value) {
			key := fmt.Sprintf("p%03d-k%08d", p, written)
			if err := w.Append([]byte(key), value); err != nil {
				return err
			}
		}
	}
	return w.Close()
}

func specsFor(addr string, tasks []string, parts int) []core.FetchSpec {
	var specs []core.FetchSpec
	for _, task := range tasks {
		for p := 0; p < parts; p++ {
			specs = append(specs, core.FetchSpec{Addr: addr, MapTask: task, Partition: p})
		}
	}
	return specs
}

// run executes one scenario and returns the light job's latency profile.
func (r *overloadRig) run(cfg OverloadConfig, sc overloadScenario) (*overloadRun, error) {
	tr := transport.NewTCP()
	scfg := core.SupplierConfig{
		Transport: tr,
		Addr:      "127.0.0.1:0",
		// Size the cache for the combined working set so the comparison
		// isolates scheduling and queueing, not cache thrash.
		DataCacheBytes: 64 << 20,
		// Enough transmit workers that a free one is usually available;
		// the contended resource is the admission budget and the wire.
		XmitWorkers: 4,
	}
	var mflow *flow.Config
	if sc == scenarioFlow {
		scfg.Flow = &flow.Config{
			AdmitBytes: cfg.AdmitBytes,
			// Long enough that a shed bulk request backs off for many
			// service times (its churn stays off the light job's tail),
			// short enough that the bulk job never idles the supplier.
			RetryAfter: 4 * time.Millisecond,
			// The latency-sensitive tenant gets the larger share; the
			// bulk job is throughput-bound and barely notices.
			Weights: map[string]int64{"light": 4, "heavy": 1},
		}
		// Finer-grained staging interleaves the two tenants more tightly
		// in the transmit queue.
		scfg.PrefetchBatch = 2
		scfg.Tenant = func(task string) string {
			if strings.HasPrefix(task, "heavy") {
				return "heavy"
			}
			return "light"
		}
		// A tight AIMD ceiling keeps the bulk job pipelined one request
		// deep past the serialized resident segment: the second request
		// sheds (exercising shed->backoff->retry continuously) without
		// flooding the supplier with probe bursts.
		mflow = &flow.Config{WindowStart: 2, WindowMax: 2}
	}
	s, err := core.NewMOFSupplier(scfg, r.lookup)
	if err != nil {
		return nil, err
	}
	defer s.Close()

	newMerger := func(window int) (*core.NetMerger, error) {
		return core.NewNetMerger(core.MergerConfig{
			Transport:     tr,
			WindowPerNode: window,
			Flow:          mflow,
		})
	}
	lightM, err := newMerger(4)
	if err != nil {
		return nil, err
	}
	defer lightM.Close()

	// The heavy job hammers the supplier in the background with a wide
	// window until the light job's measurement finishes.
	stop := make(chan struct{})
	heavyDone := make(chan struct{})
	if sc != scenarioSolo {
		heavyM, err := newMerger(16)
		if err != nil {
			return nil, err
		}
		defer heavyM.Close()
		heavySpecs := specsFor(s.Addr(), r.heavyTasks, cfg.HeavyParts)
		// Warm the bulk working set synchronously so the measurement sees
		// steady-state background load, not the heavy job's cold disk pass.
		if err := heavyM.Fetch(heavySpecs, func(core.FetchSpec, []byte) error { return nil }); err != nil {
			return nil, fmt.Errorf("heavy warm pass: %w", err)
		}
		go func() {
			defer close(heavyDone)
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Errors after stop are expected (merger torn down);
				// during the run the fetch must stay clean.
				if err := heavyM.Fetch(heavySpecs, func(core.FetchSpec, []byte) error { return nil }); err != nil {
					select {
					case <-stop:
						return
					default:
						panic(fmt.Sprintf("bench: heavy fetch failed mid-run: %v", err))
					}
				}
			}
		}()
		// Let the bulk job saturate the pipeline before measuring.
		time.Sleep(50 * time.Millisecond)
	} else {
		close(heavyDone)
	}

	lightSpecs := specsFor(s.Addr(), r.lightTasks, cfg.LightParts)
	var samples []time.Duration
	for round := 0; round < cfg.Rounds; round++ {
		for _, spec := range lightSpecs {
			t0 := time.Now()
			err := lightM.Fetch([]core.FetchSpec{spec}, func(core.FetchSpec, []byte) error { return nil })
			if err != nil {
				close(stop)
				<-heavyDone
				return nil, fmt.Errorf("light fetch %s/%d: %w", spec.MapTask, spec.Partition, err)
			}
			samples = append(samples, time.Since(t0))
		}
	}
	close(stop)
	<-heavyDone

	if st := lightM.Stats(); st.Errors != 0 {
		return nil, fmt.Errorf("light merger surfaced %d errors", st.Errors)
	}
	run := &overloadRun{p50: percentile(samples, 0.50), p99: percentile(samples, 0.99)}
	if ls := s.FlowState().Ledger; ls != nil {
		run.sheds = ls.Sheds
	}
	return run, nil
}

// percentile returns the p-th percentile (0 < p <= 1) of the samples.
func percentile(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
