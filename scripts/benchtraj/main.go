// Command benchtraj reads the committed BENCH_<pr>.json reports that
// scripts/benchpair writes and prints, for each workload's end-to-end
// metric, one line per PR: the median over pairs of change/parent, the
// pairs won and lost, and a running product of those ratios. It runs no
// benchmark.
//
//	go run ./scripts/benchtraj          # reports in the current directory
//	go run ./scripts/benchtraj <dir>
//
// The chain at PR n is the product of the ratios of the PRs after PR b,
// where b is the PR the chain started at; if each PR's parent is the PR
// before it, that estimates PR n's tree over PR b's tree. A PR with no
// file, no row for the metric, or no ratio (every parent run read zero)
// breaks the chain, and it starts again at the next PR that has a ratio.
// Tagged re-runs, BENCH_<pr>.<tag>.json, are listed and not read.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchFile matches a committed report: BENCH_<pr>.json, or a re-run of
// that PR under a tag, BENCH_<pr>.<tag>.json.
var benchFile = regexp.MustCompile(`^BENCH_(\d+)(\..+)?\.json$`)

// pairRow is the part of a benchpair paired row the trajectory reads.
type pairRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Better   string    `json:"better"`
	Parent   []float64 `json:"parent"`
	Change   []float64 `json:"change"`
	Wins     int       `json:"pairs_won"`
	Losses   int       `json:"pairs_lost"`
}

func main() {
	dir := "."
	if len(os.Args) > 1 {
		dir = os.Args[1]
	}
	if err := trajectory(os.Stdout, dir); err != nil {
		fmt.Fprintln(os.Stderr, "benchtraj:", err)
		os.Exit(1)
	}
}

func trajectory(w io.Writer, dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	files := map[int]string{}
	var prs []int
	var reruns []string
	for _, e := range entries {
		m := benchFile.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		if m[2] != "" {
			reruns = append(reruns, e.Name())
			continue
		}
		pr, err := strconv.Atoi(m[1])
		if err != nil {
			return err
		}
		files[pr] = e.Name()
		prs = append(prs, pr)
	}
	if len(prs) == 0 {
		return fmt.Errorf("no BENCH_<pr>.json in %s", dir)
	}
	sort.Ints(prs)

	type key struct{ workload, metric string }
	var keys []key
	rows := map[key]map[int]pairRow{}
	better := map[key]string{}
	for _, pr := range prs {
		raw, err := os.ReadFile(filepath.Join(dir, files[pr]))
		if err != nil {
			return err
		}
		var rep struct {
			Paired []pairRow `json:"paired"`
		}
		if err := json.Unmarshal(raw, &rep); err != nil {
			return fmt.Errorf("%s: %w", files[pr], err)
		}
		for _, row := range rep.Paired {
			k := key{row.Workload, row.Metric}
			if rows[k] == nil {
				rows[k] = map[int]pairRow{}
				keys = append(keys, k)
				better[k] = row.Better
			}
			rows[k][pr] = row
		}
	}

	first, last := prs[0], prs[len(prs)-1]
	fmt.Fprintf(w, "BENCH_%d … BENCH_%d\n", first, last)
	if len(reruns) > 0 {
		fmt.Fprintf(w, "re-runs not read: %s\n", strings.Join(reruns, ", "))
	}
	for _, k := range keys {
		fmt.Fprintf(w, "\n%s %s (%s is better)\n", k.workload, k.metric, better[k])
		chain, since := 0.0, 0 // since == 0: no chain running
		for pr := first; pr <= last; pr++ {
			row, ok := rows[k][pr]
			r := math.NaN()
			if ok {
				r = pairedRatio(row)
			}
			switch {
			case files[pr] == "":
				fmt.Fprintf(w, "  PR %-4d no file                           chain broken\n", pr)
			case !ok:
				fmt.Fprintf(w, "  PR %-4d no row                            chain broken\n", pr)
			case math.IsNaN(r):
				fmt.Fprintf(w, "  PR %-4d no ratio  won %2d lost %2d of %2d  chain broken\n",
					pr, row.Wins, row.Losses, len(row.Parent))
			default:
				if since == 0 {
					chain, since = 1, pr
				} else {
					chain *= r
				}
				fmt.Fprintf(w, "  PR %-4d ratio %.4f  won %2d lost %2d of %2d  chain %.4f since PR %d\n",
					pr, r, row.Wins, row.Losses, len(row.Parent), chain, since)
				continue
			}
			since = 0
		}
	}
	return nil
}

// pairedRatio is the median over pairs of change/parent; a pair whose
// parent reads zero has no ratio and is left out. NaN if none is left.
func pairedRatio(row pairRow) float64 {
	var ratios []float64
	for i := 0; i < min(len(row.Parent), len(row.Change)); i++ {
		if row.Parent[i] != 0 {
			ratios = append(ratios, row.Change[i]/row.Parent[i])
		}
	}
	if len(ratios) == 0 {
		return math.NaN()
	}
	sort.Float64s(ratios)
	n := len(ratios)
	if n%2 == 1 {
		return ratios[n/2]
	}
	return (ratios[n/2-1] + ratios[n/2]) / 2
}
