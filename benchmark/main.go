// Command benchmark is the repository's performance benchmark: four
// shuffle workloads, measured end to end from outside the program and,
// on a traced run, layer by layer. It generates its inputs from a seed,
// runs one workload for a fixed time, verifies the outputs, prints every
// metric by name with its unit and ends with one JSON result line. See
// README.md in this directory.
//
//	bash benchmark/run.sh --workload terasort-job --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh -compare old.jsonl new.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupRepeats is how many times an untraced run sets the workload up.
const setupRepeats = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 15, "length of the timed region")
	trace := fs.Int("trace", 0, "1: traced run, per-layer metrics; 0: untraced run, end-to-end metrics")
	root := fs.String("root", "", "repository checkout (default: found from the working directory)")
	outFile := fs.String("out", "", "append the result, with the box fingerprint, to this JSON-lines file")
	compare := fs.Bool("compare", false, "compare two -out files: benchmark -compare old.jsonl new.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *root == "" {
		*root = findRoot()
	}
	spec, err := loadSpec(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result files")
			return 2
		}
		return compareFiles(spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	w, err := workloadByName(*workload)
	if err != nil || *seconds <= 0 || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "benchmark: need -workload (one of %s) and a positive -seconds\n", strings.Join(spec.workloadNames(), ", "))
		return 2
	}
	abs, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	// Everything a run writes goes under .bench_build in the checkout.
	res, err := runWorkload(runConfig{
		root: abs, scratch: filepath.Join(abs, ".bench_build"), seed: *seed,
		region: time.Duration(*seconds * float64(time.Second)), traced: *trace != 0, rungs: fullLadder,
	}, w, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	line, err := res.resultLine(spec, *trace != 0)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *outFile != "" {
		if err := appendResult(*outFile, res, line); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	fmt.Fprintln(stdout, line)
	if res.failed > 0 {
		fmt.Fprintf(stderr, "benchmark: %d of %d operations failed; first: %v\n", res.failed, res.attempted, res.firstErr)
		return 1
	}
	return 0
}

// findRoot returns the checkout the benchmark is run from: the working
// directory, or its parent when started inside benchmark/.
func findRoot() string {
	if _, err := os.Stat("BENCHMARK.json"); err == nil {
		return "."
	}
	return ".."
}

// result is one run's outcome.
type result struct {
	workload          string
	seed              int64
	trace             bool
	attempted, failed int
	firstErr          error
	metrics           map[string]float64
}

// runConfig says how to run a workload. root is the checkout the daemons
// are built from; binaries, run directories and the trace file go under
// scratch. region is the length of the timed region.
type runConfig struct {
	root, scratch string
	seed          int64
	region        time.Duration
	traced        bool
	rungs         ladder
}

// runWorkload builds what the workload needs and runs it, untraced or
// traced. Progress and the metric table go to w.
func runWorkload(cfg runConfig, spec workloadSpec, w io.Writer) (*result, error) {
	bins := filepath.Join(cfg.scratch, "bin")
	if err := os.MkdirAll(bins, 0o755); err != nil {
		return nil, err
	}
	if spec.fetch != nil {
		start := time.Now()
		if err := buildDaemons(cfg.root, bins, "jbsregistryd", "jbssupplierd"); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "%-40s %12.4f s\n", "build_s", time.Since(start).Seconds())
	}
	setup := func() (env, error) {
		var e env
		var err error
		if spec.job != nil {
			e, err = setupJob(*spec.job, cfg.seed, cfg.scratch)
		} else {
			e, err = setupFetch(*spec.fetch, cfg.seed, bins, cfg.scratch)
		}
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		return e, nil
	}
	res := &result{workload: spec.name, seed: cfg.seed, trace: cfg.traced, metrics: make(map[string]float64)}
	var err error
	if cfg.traced {
		err = res.runTraced(setup, spec, cfg, w)
	} else {
		err = res.runUntraced(setup, cfg.region, w)
	}
	if err != nil {
		return nil, err
	}
	printMetrics(w, res.metrics)
	return res, nil
}

// runUntraced measures the end-to-end metrics. It sets the workload up
// setupRepeats times and measures a share of d on each set-up. setup_s
// is the median over the set-ups; every other metric is a median over the
// operations or windows of all of them, so that neither one start of the
// daemons nor one noisy spell of the host decides a run's numbers.
func (r *result) runUntraced(setup func() (env, error), d time.Duration, w io.Writer) error {
	var setupSeconds []float64
	pooled := &sample{}
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		e, err := setup()
		if err != nil {
			return err
		}
		setupSeconds = append(setupSeconds, time.Since(start).Seconds())
		if i == 0 {
			fmt.Fprintf(w, "%-40s %s\n", "inputs_sha256", e.inputsSHA256())
		}
		s, err := e.run(d/setupRepeats, nil)
		if cerr := e.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		pooled.opSeconds = append(pooled.opSeconds, s.opSeconds...)
		pooled.windows = append(pooled.windows, s.windows...)
		r.count(s)
		printOps(w, s)
	}
	r.metrics["setup_s"] = median(setupSeconds)
	endToEnd(pooled, r.metrics)
	return nil
}

// runTraced measures the per-layer metrics on one set-up: half of d
// untraced, half under the decorators (the first half gives the numbers
// tracing must not disturb, the difference is tracing's overhead), then
// the ladder.
func (r *result) runTraced(setup func() (env, error), spec workloadSpec, cfg runConfig, w io.Writer) (err error) {
	e, err := setup()
	if err != nil {
		return err
	}
	defer func() {
		if cerr := e.close(); err == nil {
			err = cerr
		}
	}()
	fmt.Fprintf(w, "%-40s %s\n", "inputs_sha256", e.inputsSHA256())
	plain, err := e.run(cfg.region/2, nil)
	if err != nil {
		return err
	}
	tr := newTracer()
	traced, err := e.run(cfg.region/2, tr)
	if err != nil {
		return err
	}
	r.count(plain)
	r.count(traced)
	spans := tr.stop()
	tracePath := filepath.Join(cfg.scratch, "trace_"+spec.name+".json")
	if err := writeTrace(tracePath, spec.name, r.seed, spans); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-40s %s (%d spans)\n", "trace_file", tracePath, len(spans))
	perLayer(spec, plain, traced, spans, r.metrics)
	rss, err := peakRSS(e)
	if err != nil {
		return err
	}
	r.metrics["daemon.bench_peak_rss_mb"] = rss["bench"]
	r.metrics["daemon.supplier_peak_rss_mb"] = rss["supplier"]

	ladderDir, err := os.MkdirTemp(cfg.scratch, "ladder-*")
	if err != nil {
		return err
	}
	err = cfg.rungs.walk(ladderDir, e.segmentBytes(), r.seed, r.metrics)
	if rerr := os.RemoveAll(ladderDir); err == nil {
		err = rerr
	}
	return err
}

// count folds a sample's operation counts into the result.
func (r *result) count(s *sample) {
	r.attempted += s.attempted
	r.failed += s.failed
	if r.firstErr == nil {
		r.firstErr = s.firstErr
	}
}

// peakRSS returns the resident-set high-water marks of the benchmark
// process ("bench") and of the workload's daemons, by role.
func peakRSS(e env) (map[string]float64, error) {
	self, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	byRole := map[string]float64{"bench": self}
	for role, pids := range e.daemons() {
		for _, pid := range pids {
			mb, err := peakRSSMB(pid)
			if err != nil {
				return nil, err
			}
			byRole[role] += mb
		}
	}
	return byRole, nil
}

// endToEnd computes the metrics a user of the system would see from the
// operations and windows of an untraced run. One operation is one job or
// one fetch batch; rates and costs are medians over the windows.
func endToEnd(s *sample, into map[string]float64) {
	into["op_p50_ms"] = median(s.opSeconds) * 1e3
	var mbPerS, fetchesPerS, cpuPerGB, allocPerByte, rssMB []float64
	for _, w := range s.windows {
		if w.seconds <= 0 || w.bytes <= 0 {
			continue // a stalled window has no rate to quote; its operations count above
		}
		mbPerS = append(mbPerS, float64(w.bytes)/1e6/w.seconds)
		fetchesPerS = append(fetchesPerS, float64(w.segments)/w.seconds)
		cpuPerGB = append(cpuPerGB, w.cpuSeconds/(float64(w.bytes)/1e9))
		allocPerByte = append(allocPerByte, float64(w.allocBytes)/float64(w.bytes))
		rssMB = append(rssMB, w.rssMB)
	}
	into["shuffle_mb_per_s"] = median(mbPerS)
	into["fetches_per_s"] = median(fetchesPerS)
	into["cpu_s_per_gb"] = median(cpuPerGB)
	into["alloc_bytes_per_byte"] = median(allocPerByte)
	into["rss_mb"] = median(rssMB)
}

// printOps prints what the guide asks to state beside a timing: sample
// count, extremes and the highest percentile the sample supports.
func printOps(w io.Writer, s *sample) {
	n := len(s.opSeconds)
	if n == 0 {
		return
	}
	tail := tailPercentile(n)
	fmt.Fprintf(w, "%-40s n=%d min=%.3f p50=%.3f p%g=%.3f max=%.3f ms\n", "op_times", n,
		percentile(s.opSeconds, 0)*1e3, median(s.opSeconds)*1e3, tail, percentile(s.opSeconds, tail)*1e3,
		percentile(s.opSeconds, 100)*1e3)
	fmt.Fprintf(w, "%-40s %d failed of %d attempted, %d windows\n", "op_fail_ratio", s.failed, s.attempted, len(s.windows))
}

func printMetrics(w io.Writer, metrics map[string]float64) {
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%-40s %16.6g\n", name, metrics[name])
	}
}

// benchSpec is the part of BENCHMARK.json the program reads: which
// metrics a result line carries, in which unit, and the bounds -compare
// applies.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

func (s *benchSpec) workloadNames() []string {
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	return names
}

// resultJSON is the line the driver reads, and with the fingerprint the
// record -out appends.
type resultJSON struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders the driver's result line: every end_to_end metric of
// BENCHMARK.json on an untraced run, every per_layer metric on a traced
// one. A metric the spec names and the run did not compute is an error,
// except that a layer absent from a workload reads 0.
func (r *result) resultLine(spec *benchSpec, traced bool) (string, error) {
	out := resultJSON{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricValue)}
	wanted := spec.EndToEnd
	if traced {
		wanted = spec.PerLayer
	}
	for _, m := range wanted {
		v, ok := r.metrics[m.Name]
		if !ok && !traced {
			return "", fmt.Errorf("BENCHMARK.json names metric %q, which this run did not measure", m.Name)
		}
		out.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// record is one line of an -out file.
type record struct {
	Fingerprint fingerprint     `json:"fingerprint"`
	Workload    string          `json:"workload"`
	Seed        int64           `json:"seed"`
	Trace       bool            `json:"trace"`
	Result      json.RawMessage `json:"result"`
}

func appendResult(path string, r *result, line string) error {
	rec, err := json.Marshal(record{
		Fingerprint: boxFingerprint(), Workload: r.workload, Seed: r.seed, Trace: r.trace,
		Result: json.RawMessage(line),
	})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(rec, '\n')); err != nil {
		_ = f.Close() // already failing; the write error is the one to report
		return err
	}
	return f.Close()
}

// fingerprint describes the box a result was measured on; results from
// different boxes are not comparable.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	CPUModel   string `json:"cpu_model"`
}

func boxFingerprint() fingerprint {
	fp := fingerprint{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				fp.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return fp
}
