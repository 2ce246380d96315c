package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// runs holds, per workload and metric, the values of every run in one
// -out file, with the fingerprints and failures seen.
type runs struct {
	values map[string]map[string][]float64 // workload -> metric -> values
	boxes  map[fingerprint]bool
	failed int
}

func loadRuns(path string) (*runs, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := &runs{values: make(map[string]map[string][]float64), boxes: make(map[fingerprint]bool)}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		var res resultJSON
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if err := json.Unmarshal(rec.Result, &res); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		r.boxes[rec.Fingerprint] = true
		r.failed += res.Failed
		if r.values[rec.Workload] == nil {
			r.values[rec.Workload] = make(map[string][]float64)
		}
		for name, m := range res.Metrics {
			r.values[rec.Workload][name] = append(r.values[rec.Workload][name], m.Value)
		}
	}
	return r, sc.Err()
}

// compareFiles applies BENCHMARK.json's bounds to every (metric, workload)
// row two result files share. A row whose run-to-run spread exceeds its
// bound is unresolved, not unchanged; per-layer metrics have no bound and
// are shown for the reader. It returns 1 on a regression.
func compareFiles(spec *benchSpec, oldPath, newPath string, stdout, stderr io.Writer) int {
	oldRuns, err := loadRuns(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	newRuns, err := loadRuns(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	return compareRuns(spec, oldRuns, newRuns, stdout)
}

func compareRuns(spec *benchSpec, oldRuns, newRuns *runs, w io.Writer) int {
	boxes := make(map[fingerprint]bool)
	for b := range oldRuns.boxes {
		boxes[b] = true
	}
	for b := range newRuns.boxes {
		boxes[b] = true
	}
	if len(boxes) > 1 {
		fmt.Fprintf(w, "WARNING: results come from %d different boxes and are not comparable:\n", len(boxes))
		for b := range boxes {
			fmt.Fprintf(w, "  %+v\n", b)
		}
	}
	bounded := make(map[string]bool)
	for _, m := range spec.EndToEnd {
		bounded[m.Name] = true
	}
	var workloads []string
	for name := range newRuns.values {
		if oldRuns.values[name] != nil {
			workloads = append(workloads, name)
		}
	}
	sort.Strings(workloads)

	metrics := append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...)
	regressions := 0
	fmt.Fprintf(w, "%-18s %-34s %14s %14s %8s %8s %7s  %s\n",
		"workload", "metric", "old median", "new median", "new/old", "spread", "bound", "verdict")
	for _, wl := range workloads {
		for _, m := range metrics {
			was, now := oldRuns.values[wl][m.Name], newRuns.values[wl][m.Name]
			if len(was) == 0 || len(now) == 0 {
				continue
			}
			base, cur := median(was), median(now)
			if base == 0 {
				continue // a layer this workload does not exercise
			}
			worse := (cur - base) / base
			if m.Better == "higher" {
				worse = -worse
			}
			sp := max(spread(was), spread(now))
			verdict := "-"
			if bounded[m.Name] {
				switch {
				case sp > m.Bound:
					verdict = "unresolved"
				case worse > m.Bound:
					verdict = "REGRESSION"
					regressions++
				default:
					verdict = "ok"
				}
			}
			fmt.Fprintf(w, "%-18s %-34s %14.6g %14.6g %8.4f %8.4f %7.3g  %s (n=%d/%d, %s is better)\n",
				wl, m.Name, base, cur, cur/base, sp, m.Bound, verdict, len(was), len(now), m.Better)
		}
	}
	if newRuns.failed > oldRuns.failed {
		fmt.Fprintf(w, "REGRESSION: %d failed operations, %d before\n", newRuns.failed, oldRuns.failed)
		regressions++
	}
	if regressions > 0 {
		fmt.Fprintf(w, "%d regression(s)\n", regressions)
		return 1
	}
	return 0
}
