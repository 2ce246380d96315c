package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTrajectoryChainsPairedRatios writes synthetic reports with a PR
// missing, a PR whose parent runs all read zero, and a tagged re-run
// that must be listed but not read, then checks the printed ratios, pair
// counts, and where the chain breaks and starts again.
func TestTrajectoryChainsPairedRatios(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, parent, change []float64, wins, losses int) {
		t.Helper()
		rep := map[string]any{"pr": 0, "paired": []pairRow{{Workload: "w", Metric: "op_p50_ms",
			Better: "lower", Parent: parent, Change: change, Wins: wins, Losses: losses}}}
		out, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), out, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// PR 7: ratios 0.9, 0.8, 1.1 (median 0.9). PR 8 has no file. PR 9:
	// 1.5, 1.2, 1.0 and a zero parent with no ratio (median 1.2). PR 10:
	// 0.5, 0.5. PR 11: no ratio. PR 12: 2.
	write("BENCH_7.json", []float64{10, 10, 10}, []float64{9, 8, 11}, 2, 1)
	write("BENCH_9.json", []float64{10, 10, 10, 0}, []float64{15, 12, 10, 3}, 0, 2)
	write("BENCH_9.seed2.json", []float64{1}, []float64{100}, 0, 1)
	write("BENCH_10.json", []float64{4, 4}, []float64{2, 2}, 2, 0)
	write("BENCH_11.json", []float64{0, 0}, []float64{1, 1}, 0, 0)
	write("BENCH_12.json", []float64{1}, []float64{2}, 0, 1)

	var out bytes.Buffer
	if err := trajectory(&out, dir); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"re-runs not read: BENCH_9.seed2.json",
		"w op_p50_ms (lower is better)",
		"PR 7    ratio 0.9000  won  2 lost  1 of  3  chain 1.0000 since PR 7",
		"PR 8    no file",
		"PR 9    ratio 1.2000  won  0 lost  2 of  4  chain 1.0000 since PR 9",
		"PR 10   ratio 0.5000  won  2 lost  0 of  2  chain 0.5000 since PR 9",
		"PR 11   no ratio",
		"PR 12   ratio 2.0000  won  0 lost  1 of  1  chain 1.0000 since PR 12",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("trajectory output lacks %q:\n%s", want, got)
		}
	}
	if n := strings.Count(got, "chain broken"); n != 2 {
		t.Errorf("%d broken-chain lines, want 2 (PRs 8 and 11):\n%s", n, got)
	}
	if strings.Contains(got, fmt.Sprint(100.0)) {
		t.Errorf("the tagged re-run was read:\n%s", got)
	}
}
