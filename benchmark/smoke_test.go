package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// smokeSpecs are the four workloads at a few hundredths of their size.
var smokeSpecs = []workloadSpec{
	{name: "terasort-job", job: &jobSpec{benchmark: "Terasort", records: 8_000, recordLen: 100, blockRecords: 1_000, reducers: 4}},
	{name: "wordcount-job", job: &jobSpec{benchmark: "WordCount", records: 2_000, recordLen: 64, blockRecords: 500, reducers: 4}},
	{name: "fetch-large-cold", fetch: &fetchSpec{tasks: 8, parts: 4, segBytes: 256 << 10}},
	{name: "fetch-small-hot", fetch: &fetchSpec{tasks: 16, parts: 4, segBytes: 4 << 10}},
}

const smokeRegion = 300 * time.Millisecond

// smokeLadder is the ladder at a hundredth of its size.
var smokeLadder = ladder{bytes: 1 << 20, ops: 10_000, rpcs: 20, frames: 40}

var (
	binsOnce sync.Once
	binsDir  string
	binsErr  error
)

// daemonBins builds the daemons once for the whole test binary.
func daemonBins(t *testing.T) string {
	t.Helper()
	binsOnce.Do(func() {
		binsDir, binsErr = os.MkdirTemp("", "jbsperf-bins-*")
		if binsErr == nil {
			binsErr = buildDaemons("..", binsDir, "jbsregistryd", "jbssupplierd")
		}
	})
	if binsErr != nil {
		t.Fatal(binsErr)
	}
	return binsDir
}

func TestMain(m *testing.M) {
	code := m.Run()
	if binsDir != "" {
		_ = os.RemoveAll(binsDir) // test scratch
	}
	os.Exit(code)
}

func setupSmoke(t *testing.T, spec workloadSpec, seed int64, scratch string) env {
	t.Helper()
	var e env
	var err error
	if spec.job != nil {
		e, err = setupJob(*spec.job, seed, scratch)
	} else {
		e, err = setupFetch(*spec.fetch, seed, daemonBins(t), scratch)
	}
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// alive reports whether a process still exists.
func alive(pid int) bool {
	return !errors.Is(syscall.Kill(pid, 0), syscall.ESRCH)
}

// children lists the processes whose parent is this test binary.
func children(t *testing.T) []string {
	t.Helper()
	stats, err := filepath.Glob("/proc/[0-9]*/stat")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, path := range stats {
		b, err := os.ReadFile(path)
		if err != nil {
			continue // exited since the glob
		}
		// "pid (comm) state ppid ...": the fields after the command name.
		fields := strings.Fields(string(b[strings.LastIndexByte(string(b), ')')+1:]))
		if len(fields) > 1 && fields[1] == strconv.Itoa(os.Getpid()) {
			out = append(out, string(b[:strings.LastIndexByte(string(b), ')')+1]))
		}
	}
	return out
}

// TestSmokeAllWorkloads runs every workload end to end at small scale:
// untraced and traced regions, output verification, every metric
// BENCHMARK.json names, and the clean-up the contract demands.
func TestSmokeAllWorkloads(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(spec.workloadNames(), ","), "terasort-job,wordcount-job,fetch-large-cold,fetch-small-hot"; got != want {
		t.Errorf("BENCHMARK.json workloads = %s, want %s", got, want)
	}
	measured := make(map[string]bool) // metrics some workload's traced run computed
	for _, w := range smokeSpecs {
		t.Run(w.name, func(t *testing.T) {
			scratch := t.TempDir()
			if w.fetch != nil {
				// runWorkload builds into scratch/bin; reuse the shared build.
				if err := os.Symlink(daemonBins(t), filepath.Join(scratch, "bin")); err != nil {
					t.Fatal(err)
				}
			}
			for _, traced := range []bool{false, true} {
				res, err := runWorkload(runConfig{
					root: "..", scratch: scratch, seed: 7, region: 2 * smokeRegion, traced: traced, rungs: smokeLadder,
				}, w, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if res.failed != 0 || res.attempted == 0 {
					t.Errorf("traced=%v: %d failed of %d attempted: %v", traced, res.failed, res.attempted, res.firstErr)
				}
				if _, err := res.resultLine(spec, traced); err != nil {
					t.Error(err)
				}
				if !traced {
					for _, m := range spec.EndToEnd {
						if res.metrics[m.Name] <= 0 {
							t.Errorf("end-to-end metric %s = %g, want > 0", m.Name, res.metrics[m.Name])
						}
					}
					continue
				}
				for name := range res.metrics {
					measured[name] = true
				}
				if _, err := loadTrace(filepath.Join(scratch, "trace_"+w.name+".json")); err != nil {
					t.Error(err)
				}
				checkLayerShape(t, w, res.metrics)
			}
			for _, pattern := range []string{"run-*", "ladder-*"} {
				if left, _ := filepath.Glob(filepath.Join(scratch, pattern)); len(left) != 0 {
					t.Errorf("directories left behind: %v", left)
				}
			}
		})
	}
	for _, m := range spec.PerLayer {
		if !measured[m.Name] {
			t.Errorf("BENCHMARK.json per-layer metric %s was measured by no workload", m.Name)
		}
	}
}

// checkLayerShape asserts what makes each workload the workload it is.
func checkLayerShape(t *testing.T, w workloadSpec, m map[string]float64) {
	t.Helper()
	switch w.name {
	case "fetch-large-cold":
		// 256 KiB segments travel in two 128 KiB frames and a bit.
		if got := m["transport.recv_frames_per_fetch"]; got < 2 {
			t.Errorf("recv frames per fetch = %g, want >= 2 for multi-frame segments", got)
		}
	case "fetch-small-hot":
		if got := m["transport.recv_frames_per_fetch"]; got < 0.99 || got > 1.2 {
			t.Errorf("recv frames per fetch = %g, want about 1", got)
		}
		if got := m["core.datacache_stage_miss_ratio"]; got > 0.05 {
			t.Errorf("stage miss ratio = %g on a resident fixture, want <= 0.05", got)
		}
		if got := m["registry.resolve_calls"]; got != float64(w.fetch.tasks) {
			t.Errorf("resolve calls per batch = %g, want one per spec (%d)", got, w.fetch.tasks)
		}
	case "terasort-job":
		if m["mapred.map_tasks"] != 8 || m["mapred.shuffled_segments"] != 32 {
			t.Errorf("map tasks %g, shuffled segments %g per job, want 8 and 32", m["mapred.map_tasks"], m["mapred.shuffled_segments"])
		}
		if m["merge.add_segment_calls"] != 32 || m["shuffle.fetch_calls"] == 0 {
			t.Errorf("decorators saw %g AddSegment and %g Fetch calls per job", m["merge.add_segment_calls"], m["shuffle.fetch_calls"])
		}
	case "wordcount-job":
		if got := m["mapred.combine_out_per_in"]; got <= 0 || got >= 1 {
			t.Errorf("combiner output per input = %g, want within (0, 1)", got)
		}
	}
	if got := m["trace.unexplained_share"]; got < 0 || got > 1 {
		t.Errorf("trace.unexplained_share = %g, want within [0, 1]", got)
	}
}

// TestSameSeedSameInputs: inputs come from the seed and nothing else.
func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range smokeSpecs {
		var hashes []string
		for _, seed := range []int64{11, 11, 12} {
			e := setupSmoke(t, w, seed, t.TempDir())
			hashes = append(hashes, e.inputsSHA256())
			if err := e.close(); err != nil {
				t.Fatal(err)
			}
		}
		if hashes[0] != hashes[1] {
			t.Errorf("%s: seed 11 gave inputs %s, then %s", w.name, hashes[0], hashes[1])
		}
		if hashes[0] == hashes[2] {
			t.Errorf("%s: seeds 11 and 12 gave the same inputs", w.name)
		}
	}
}

// flipByte inverts one byte in the middle of a file.
func flipByte(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptionFailsOperations: a damaged segment or input block must
// show up as failed operations, never as a quietly slower run.
func TestCorruptionFailsOperations(t *testing.T) {
	for _, w := range smokeSpecs {
		e := setupSmoke(t, w, 5, t.TempDir())
		switch e := e.(type) {
		case *fetchEnv:
			flipByte(t, filepath.Join(e.fixture, taskName(0)+".data"))
		case *jobEnv:
			blocks, err := filepath.Glob(filepath.Join(e.dir, "dfs", "*", "blk_*"))
			if err != nil || len(blocks) == 0 {
				t.Fatalf("no DFS blocks to corrupt: %v", err)
			}
			flipByte(t, blocks[0])
		}
		s, err := e.run(smokeRegion, nil)
		if err != nil {
			t.Fatal(err)
		}
		if s.failed == 0 || s.firstErr == nil {
			t.Errorf("%s: %d failed of %d attempted after corruption, want failures", w.name, s.failed, s.attempted)
		}
		if err := e.close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDaemonHygiene: daemons live in their own process groups under the
// run directory, drain to exit 0 on close, and die with a failed set-up.
func TestDaemonHygiene(t *testing.T) {
	w := smokeSpecs[3]
	scratch := t.TempDir()
	e := setupSmoke(t, w, 3, scratch).(*fetchEnv)
	var pids []int
	for _, list := range e.daemons() {
		pids = append(pids, list...)
	}
	if len(pids) != 3 {
		t.Fatalf("%d daemons, want a registry and two suppliers", len(pids))
	}
	for _, pid := range pids {
		if pgid, err := syscall.Getpgid(pid); err != nil || pgid != pid {
			t.Errorf("daemon %d is in process group %d (%v), want its own", pid, pgid, err)
		}
	}
	if err := e.close(); err != nil {
		t.Fatalf("close (SIGTERM, exit 0 required): %v", err)
	}
	for _, pid := range pids {
		if alive(pid) {
			t.Errorf("daemon %d survived close", pid)
		}
	}
	if _, err := os.Stat(e.dir); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("run directory %s still there after close: %v", e.dir, err)
	}

	// A set-up that fails after the registry is up (there is no supplier
	// binary) must kill it and leave nothing behind.
	bins := t.TempDir()
	if err := os.Symlink(filepath.Join(daemonBins(t), "jbsregistryd"), filepath.Join(bins, "jbsregistryd")); err != nil {
		t.Fatal(err)
	}
	if _, err := setupFetch(*w.fetch, 3, bins, scratch); err == nil {
		t.Fatal("set-up without a supplier binary succeeded")
	}
	if left, _ := filepath.Glob(filepath.Join(scratch, "run-*")); len(left) != 0 {
		t.Errorf("failed set-up left %v behind", left)
	}
	if left := children(t); len(left) != 0 {
		t.Errorf("child processes survive: %v", left)
	}
}
