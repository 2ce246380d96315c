package bench

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/flow"
	"repro/internal/registry"
	"repro/internal/transport"
)

// ElasticConfig sizes the elastic-fleet scenario: a registry plus
// jbsautoscalerd are spawned as real processes, the autoscaler launches
// its own jbssupplierd fleet, and two in-process tenants (a paced light
// job and a wide-window heavy job) drive the fleet 1 -> MaxFleet -> 1
// while every fetched byte is verified against the fixture.
type ElasticConfig struct {
	// Tasks x Parts segments of SegBytes each form the fixture grid the
	// light tenant fetches and byte-verifies.
	Tasks    int
	Parts    int
	SegBytes int
	// HeavyTasks x Parts segments of SegBytes*Skew each form the heavy
	// tenant's grid. Skewed segments comparable to the admission budget
	// are what saturate the ledger: one resident heavy segment plus any
	// concurrent request overflows the limit and sheds — the scale-up
	// signal (same mechanism the overload scenario measures).
	HeavyTasks int
	Skew       int
	// Seed pins the fixture contents.
	Seed uint64
	// BaselineRounds is how many grid passes the light tenant makes
	// before the overload starts (the fleet=1 latency reference).
	BaselineRounds int
	// SettleRounds is how many grid passes the light tenant makes after
	// the fleet reaches MaxFleet (the scaled-out latency sample).
	SettleRounds int
	// MaxFleet caps the autoscaler (-max); the scenario requires the
	// seeded overload to reach it.
	MaxFleet int
	// AdmitBytes is each supplier's admission budget — small enough that
	// the heavy tenant sheds continuously, which is the scale-up signal.
	AdmitBytes int64
	// TargetShedRate is the autoscaler's per-supplier shed-rate target.
	TargetShedRate float64
	// HeavyWindow is the heavy tenant's AIMD window ceiling.
	HeavyWindow int
	// LeaseTTL is the registry lease TTL for the fleet.
	LeaseTTL time.Duration
	// Timeout bounds the whole scenario (build included).
	Timeout time.Duration
	// Log, when set, receives per-event progress lines.
	Log func(format string, args ...any)
}

// DefaultElasticConfig returns the laptop-scale scenario.
func DefaultElasticConfig() ElasticConfig {
	return ElasticConfig{
		Tasks:          6,
		Parts:          4,
		SegBytes:       32 << 10,
		HeavyTasks:     4,
		Skew:           10,
		Seed:           777,
		BaselineRounds: 4,
		SettleRounds:   6,
		MaxFleet:       3,
		// Sized so one resident skewed segment nearly fills the budget:
		// the heavy tenant's window then sheds continuously, the signal
		// the target-tracking policy scales on.
		AdmitBytes:     128 << 10,
		TargetShedRate: 20,
		HeavyWindow:    16,
		LeaseTTL:       750 * time.Millisecond,
		Timeout:        5 * time.Minute,
	}
}

// ShortElasticConfig returns the CI smoke: a smaller grid, fewer
// measurement passes, same 1 -> 3 -> 1 fleet path.
func ShortElasticConfig() ElasticConfig {
	cfg := DefaultElasticConfig()
	cfg.Tasks = 3
	cfg.Parts = 3
	cfg.SegBytes = 16 << 10
	cfg.BaselineRounds = 2
	cfg.SettleRounds = 3
	return cfg
}

// elasticSample is one light-tenant fetch latency tagged with the live
// fleet size observed when it completed.
type elasticSample struct {
	fleet int
	dur   time.Duration
}

// fleetWatch polls the registry membership in the background so the
// sampler can tag latencies with the fleet size and the scenario can
// wait on transitions without blocking the tenants.
type fleetWatch struct {
	c    *registry.Client
	cur  atomic.Int32
	stop chan struct{}
	done chan struct{}
	wg   sync.WaitGroup
}

func newFleetWatch(regAddr string) *fleetWatch {
	w := &fleetWatch{
		c:    registry.NewClient(regAddr),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		defer close(w.done)
		ticker := time.NewTicker(30 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-ticker.C:
			}
			if live, err := liveSupplierCount(w.c); err == nil {
				w.cur.Store(int32(live))
			}
		}
	}()
	return w
}

func (w *fleetWatch) live() int { return int(w.cur.Load()) }

// waitFor blocks until the live fleet reaches want.
func (w *fleetWatch) waitFor(want int, deadline time.Time) error {
	for w.live() != want {
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet never reached %d live suppliers (at %d)", want, w.live())
		}
		time.Sleep(20 * time.Millisecond)
	}
	return nil
}

func (w *fleetWatch) close() {
	close(w.stop)
	w.wg.Wait()
	w.c.Close()
}

// elasticMerger is one tenant's merger with the registry client its
// resolver reads through; Close closes both.
type elasticMerger struct {
	*core.NetMerger
	rc *registry.Client
}

func (m elasticMerger) Close() error {
	m.NetMerger.Close()
	return m.rc.Close()
}

// newElasticMerger builds a registry-resolving merger for one tenant.
func newElasticMerger(regAddr string, window int, fc *flow.Config) (elasticMerger, error) {
	rc := registry.NewClient(regAddr)
	resolver := registry.NewResolver(rc, 20*time.Millisecond)
	m, err := core.NewNetMerger(core.MergerConfig{
		Transport:     transport.NewTCP(),
		WindowPerNode: window,
		MaxRetries:    16,
		Flow:          fc,
		Resolver: func(spec core.FetchSpec) (string, error) {
			return resolver.Resolve(spec.MapTask)
		},
	})
	if err != nil {
		rc.Close()
		return elasticMerger{}, err
	}
	return elasticMerger{m, rc}, nil
}

// fetchAutoscaleCounters scrapes the named counters from an autoscaler
// debug endpoint's Prometheus text exposition.
func fetchAutoscaleCounters(debugAddr string, names ...string) (map[string]int64, error) {
	resp, err := http.Get("http://" + debugAddr + "/debug/jbs/metrics")
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	out := make(map[string]int64, len(names))
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 || !want[fields[0]] {
			continue
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("unparseable metric line %q: %w", sc.Text(), err)
		}
		out[fields[0]] = v
	}
	return out, sc.Err()
}

// Elastic runs the elastic-fleet scenario: real jbsregistryd and
// jbsautoscalerd processes, a supplier fleet the autoscaler owns
// end-to-end, and a seeded overload that must scale the fleet
// 1 -> MaxFleet and back to 1 with zero fetch errors, every segment
// byte-verified, and every retirement a graceful drain. It is the
// acceptance run behind `make elastic-smoke`.
func Elastic(cfg ElasticConfig) (*Report, error) {
	start := time.Now()
	deadline := start.Add(cfg.Timeout)
	logf := cfg.Log

	work, err := os.MkdirTemp("", "jbs-elastic-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	buildStart := time.Now()
	bins, err := buildDaemons(work, "jbsregistryd", "jbssupplierd", "jbsautoscalerd")
	if err != nil {
		return nil, err
	}
	buildDur := time.Since(buildStart)

	fixture := filepath.Join(work, "mofs")
	if err := os.Mkdir(fixture, 0o755); err != nil {
		return nil, err
	}
	if err := daemon.WriteFixture(fixture, cfg.Tasks, cfg.Parts, cfg.SegBytes, cfg.Seed); err != nil {
		return nil, fmt.Errorf("write fixture: %w", err)
	}
	// The heavy tenant's skewed grid lives beside the light fixture in
	// the same MOF dir; every launched supplier can serve both.
	heavyTasks := make([]string, cfg.HeavyTasks)
	for i := range heavyTasks {
		task := fmt.Sprintf("h-%05d", i)
		heavyTasks[i] = task
		if err := writeSizedMOF(filepath.Join(fixture, task+".data"),
			filepath.Join(fixture, task+".index"), cfg.Parts, cfg.SegBytes*cfg.Skew); err != nil {
			return nil, fmt.Errorf("write heavy fixture: %w", err)
		}
	}
	reference, err := daemon.LoadReference(fixture, cfg.Tasks, cfg.Parts)
	if err != nil {
		return nil, err
	}

	reg, regAddr, err := startRegistry(logf, bins["jbsregistryd"], cfg.LeaseTTL)
	if err != nil {
		return nil, err
	}
	defer func() { reg.kill(); reg.wait() }()
	if logf != nil {
		logf("elastic: registry at %s", regAddr)
	}

	scaler, err := startProc(logf, "jbsautoscalerd", bins["jbsautoscalerd"],
		"-registry", regAddr,
		"-supplier-bin", bins["jbssupplierd"],
		"-mof-dir", fixture,
		"-max", fmt.Sprint(cfg.MaxFleet),
		"-interval", "100ms",
		"-admit-bytes", fmt.Sprint(cfg.AdmitBytes),
		"-heartbeat", "100ms",
		"-target-shed-rate", fmt.Sprint(cfg.TargetShedRate),
		"-quiet-for", "1s",
		"-up-cooldown", "300ms",
		"-down-cooldown", "500ms",
		"-launch-grace", "10s",
		"-debug", "127.0.0.1:0",
		"-quiet")
	if err != nil {
		return nil, err
	}
	defer func() { scaler.kill(); scaler.wait() }()
	line, err := scaler.expectLine("debug at http://")
	if err != nil {
		return nil, err
	}
	scalerDebug := strings.TrimPrefix(line[strings.Index(line, "http://"):], "http://")
	scalerDebug = strings.TrimSuffix(scalerDebug, "/debug/jbs")
	if _, err := scaler.expectLine("steering fleet"); err != nil {
		return nil, err
	}

	watch := newFleetWatch(regAddr)
	defer watch.close()
	if err := watch.waitFor(1, deadline); err != nil {
		return nil, fmt.Errorf("autoscaler never launched the floor supplier: %w", err)
	}
	if logf != nil {
		logf("elastic: floor supplier live after %v", time.Since(start).Round(time.Millisecond))
	}

	lightM, err := newElasticMerger(regAddr, 4, &flow.Config{WindowStart: 2, WindowMax: 4})
	if err != nil {
		return nil, err
	}
	defer lightM.Close()
	heavyM, err := newElasticMerger(regAddr, cfg.HeavyWindow, &flow.Config{WindowStart: 4, WindowMax: cfg.HeavyWindow})
	if err != nil {
		return nil, err
	}
	defer heavyM.Close()

	specs := make([]core.FetchSpec, 0, cfg.Tasks*cfg.Parts)
	for ti := 0; ti < cfg.Tasks; ti++ {
		for p := 0; p < cfg.Parts; p++ {
			specs = append(specs, core.FetchSpec{MapTask: fmt.Sprintf("m-%05d", ti), Partition: p})
		}
	}
	heavySpecs := make([]core.FetchSpec, 0, cfg.HeavyTasks*cfg.Parts)
	for _, task := range heavyTasks {
		for p := 0; p < cfg.Parts; p++ {
			heavySpecs = append(heavySpecs, core.FetchSpec{MapTask: task, Partition: p})
		}
	}
	verify := func(spec core.FetchSpec, data []byte) error {
		want := reference[core.FetchSpec{MapTask: spec.MapTask, Partition: spec.Partition}]
		if !bytes.Equal(data, want) {
			return fmt.Errorf("segment %s/%d: got %d bytes, want %d (corrupt)",
				spec.MapTask, spec.Partition, len(data), len(want))
		}
		return nil
	}
	// lightPass fetches the grid one segment at a time, verifying bytes
	// and tagging each latency with the fleet size that served it.
	var samples []elasticSample
	lightPass := func() error {
		for _, spec := range specs {
			t0 := time.Now()
			if err := lightM.Fetch([]core.FetchSpec{spec}, verify); err != nil {
				return fmt.Errorf("light fetch %s/%d: %w", spec.MapTask, spec.Partition, err)
			}
			samples = append(samples, elasticSample{fleet: watch.live(), dur: time.Since(t0)})
		}
		return nil
	}

	// Phase 1: quiet baseline on the floor fleet.
	baseFrom := len(samples)
	for i := 0; i < cfg.BaselineRounds; i++ {
		if err := lightPass(); err != nil {
			return nil, err
		}
	}
	baseline := samples[baseFrom:len(samples):len(samples)]
	if logf != nil {
		logf("elastic: baseline done (%d samples, fleet=%d)", len(baseline), watch.live())
	}

	// Phase 2: seeded overload. The heavy tenant hammers the fleet with
	// a wide window against a small admission budget; the shed rate is
	// the autoscaler's scale-up signal.
	heavyStop := make(chan struct{})
	heavyErr := make(chan error, 1)
	var heavyWG sync.WaitGroup
	heavyWG.Add(1)
	go func() {
		defer heavyWG.Done()
		for {
			select {
			case <-heavyStop:
				return
			default:
			}
			if err := heavyM.Fetch(heavySpecs, func(core.FetchSpec, []byte) error { return nil }); err != nil {
				select {
				case <-heavyStop: // teardown races are expected
				default:
					heavyErr <- fmt.Errorf("heavy fetch failed mid-run: %w", err)
				}
				return
			}
		}
	}()
	stopHeavy := func() {
		select {
		case <-heavyStop:
		default:
			close(heavyStop)
		}
		heavyWG.Wait()
	}
	defer stopHeavy()

	overloadStart := time.Now()
	overloadFrom := len(samples)
	// Keep the light tenant measuring while the fleet grows.
	for pass := 0; watch.live() < cfg.MaxFleet; pass++ {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("fleet never reached %d under overload (at %d after %v)",
				cfg.MaxFleet, watch.live(), time.Since(overloadStart).Round(time.Millisecond))
		}
		select {
		case err := <-heavyErr:
			return nil, err
		default:
		}
		if err := lightPass(); err != nil {
			return nil, err
		}
		if logf != nil && pass%10 == 0 {
			logf("elastic: overload pass %d, fleet=%d", pass, watch.live())
		}
	}
	scaleUpDur := time.Since(overloadStart)
	if logf != nil {
		logf("elastic: fleet reached %d after %v of overload", cfg.MaxFleet, scaleUpDur.Round(time.Millisecond))
	}
	// Phase 3: measure the scaled-out fleet.
	for i := 0; i < cfg.SettleRounds; i++ {
		select {
		case err := <-heavyErr:
			return nil, err
		default:
		}
		if err := lightPass(); err != nil {
			return nil, err
		}
	}
	overload := samples[overloadFrom:len(samples):len(samples)]
	stopHeavy()
	select {
	case err := <-heavyErr:
		return nil, err
	default:
	}

	// Phase 4: the overload is gone; the autoscaler must drain back to
	// the floor, every retirement through the graceful handoff path.
	settleStart := time.Now()
	if err := watch.waitFor(1, deadline); err != nil {
		return nil, fmt.Errorf("fleet never drained back to the floor: %w", err)
	}
	scaleDownDur := time.Since(settleStart)
	if logf != nil {
		logf("elastic: fleet back to 1 after %v of quiet", scaleDownDur.Round(time.Millisecond))
	}
	// One more verified pass proves the surviving supplier serves the
	// full grid — nothing was lost across two graceful drains.
	if err := lightPass(); err != nil {
		return nil, fmt.Errorf("post-drain verification: %w", err)
	}

	if st := lightM.Stats(); st.Errors != 0 {
		return nil, fmt.Errorf("light merger surfaced %d errors", st.Errors)
	}
	lightStats := lightM.Stats()
	heavyStats := heavyM.Stats()
	if heavyStats.Errors != 0 {
		return nil, fmt.Errorf("heavy merger surfaced %d errors", heavyStats.Errors)
	}

	// The autoscaler's own account, scraped before it exits: at least
	// one scale-up and one scale-down, zero launch or retire failures
	// (a retire failure is a supplier that did not drain to exit 0).
	counters, err := fetchAutoscaleCounters(scalerDebug,
		"jbs_autoscale_scale_ups_total",
		"jbs_autoscale_scale_downs_total",
		"jbs_autoscale_launch_failures_total",
		"jbs_autoscale_retire_failures_total")
	if err != nil {
		return nil, fmt.Errorf("scrape autoscaler: %w", err)
	}
	if counters["jbs_autoscale_scale_ups_total"] == 0 || counters["jbs_autoscale_scale_downs_total"] == 0 {
		return nil, fmt.Errorf("autoscaler recorded no full scale cycle: %v", counters)
	}
	if counters["jbs_autoscale_launch_failures_total"] != 0 || counters["jbs_autoscale_retire_failures_total"] != 0 {
		return nil, fmt.Errorf("autoscaler recorded launch/retire failures: %v", counters)
	}

	// Graceful teardown: SIGTERM retires the managed fleet (drained, not
	// killed) and both daemons must exit 0.
	if err := scaler.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return nil, fmt.Errorf("SIGTERM jbsautoscalerd: %w", err)
	}
	if _, err := scaler.expectLine("fleet retired, exiting"); err != nil {
		return nil, err
	}
	if err := scaler.wait(); err != nil {
		return nil, fmt.Errorf("jbsautoscalerd did not exit cleanly: %w", err)
	}
	if err := reg.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return nil, fmt.Errorf("SIGTERM jbsregistryd: %w", err)
	}
	if err := reg.wait(); err != nil {
		return nil, fmt.Errorf("jbsregistryd did not shut down cleanly: %w", err)
	}

	// Split the overload samples by the fleet that served them.
	var before, after []time.Duration
	for _, s := range overload {
		if s.fleet < cfg.MaxFleet {
			before = append(before, s.dur)
		} else {
			after = append(after, s.dur)
		}
	}
	baseDur := make([]time.Duration, len(baseline))
	for i, s := range baseline {
		baseDur[i] = s.dur
	}

	rep := &Report{
		ID:     "elastic",
		Title:  fmt.Sprintf("Elastic fleet: autoscaler scales 1 -> %d under seeded overload and drains back", cfg.MaxFleet),
		Header: []string{"phase", "result"},
	}
	rep.AddRow("build daemons", buildDur.Round(time.Millisecond).String())
	rep.AddRow("fixture", fmt.Sprintf("%dx%d segments x %d B (seed %d)", cfg.Tasks, cfg.Parts, cfg.SegBytes, cfg.Seed))
	rep.AddRow("light baseline (fleet=1)", fmt.Sprintf("p50 %.3f ms, p99 %.3f ms (%d samples)",
		percentile(baseDur, 0.50).Seconds()*1e3, percentile(baseDur, 0.99).Seconds()*1e3, len(baseDur)))
	if len(before) > 0 {
		rep.AddRow("light under overload, pre-scale", fmt.Sprintf("p99 %.3f ms (%d samples)",
			percentile(before, 0.99).Seconds()*1e3, len(before)))
	}
	rep.AddRow(fmt.Sprintf("light under overload, fleet=%d", cfg.MaxFleet), fmt.Sprintf("p99 %.3f ms (%d samples)",
		percentile(after, 0.99).Seconds()*1e3, len(after)))
	rep.AddRow("scale-up", fmt.Sprintf("1 -> %d in %v (%d scale-up events)",
		cfg.MaxFleet, scaleUpDur.Round(time.Millisecond), counters["jbs_autoscale_scale_ups_total"]))
	rep.AddRow("scale-down", fmt.Sprintf("%d -> 1 in %v after quiet (%d events, 0 retire failures)",
		cfg.MaxFleet, scaleDownDur.Round(time.Millisecond), counters["jbs_autoscale_scale_downs_total"]))
	rep.AddRow("tenant health", fmt.Sprintf("0 fetch errors; light: %d retries %d sheds %d rerouted; heavy: %d retries %d sheds %d rerouted",
		lightStats.Retries, lightStats.Sheds, lightStats.Rerouted,
		heavyStats.Retries, heavyStats.Sheds, heavyStats.Rerouted))
	rep.AddNote("every light fetch byte-verified across the full 1 -> %d -> 1 fleet path; all daemons exited 0", cfg.MaxFleet)
	return rep, nil
}
