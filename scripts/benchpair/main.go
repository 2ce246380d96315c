// Command benchpair runs the repository benchmark on two trees — a parent
// revision and the working tree — by the ten-pair alternating protocol of
// DESIGN.md §8.1/§9, and writes the outcome as one BENCH_<pr>.json: every
// raw run of both sides, the box fingerprint, the per-row verdict of the
// benchmark's own -compare, and for each end-to-end metric the pairs won
// and the parent's quartile distance a claim has to beat.
//
//	go run ./scripts/benchpair -parent HEAD -pr 24 -seed 11
//	make bench-pair PARENT=HEAD PR=24 SEED=11 WORKLOADS=fetch-large-cold
//
// Both trees are copied under .bench_build/pair/ (the parent with
// git archive, the change as the tracked and untracked-but-not-ignored
// files of the working tree) and each is built and run by its own
// benchmark/run.sh, so neither side sees the other's build products. Which
// side runs first alternates from pair to pair. Nothing under benchmark/
// is touched; the tool only drives it.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// benchSpec is what benchpair reads of BENCHMARK.json.
type benchSpec struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"end_to_end"`
}

// record is one line of a benchmark -out file.
type record struct {
	Fingerprint json.RawMessage `json:"fingerprint"`
	Workload    string          `json:"workload"`
	Seed        int64           `json:"seed"`
	Trace       bool            `json:"trace"`
	Result      struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	} `json:"result"`
}

// compareRow is one row of the benchmark's -compare table.
type compareRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Parent   float64 `json:"parent_median"`
	Change   float64 `json:"change_median"`
	Ratio    float64 `json:"change_over_parent"`
	Spread   float64 `json:"spread"`
	Bound    float64 `json:"bound"`
	Verdict  string  `json:"verdict"`
}

// pairRow is the paired reading of one end-to-end metric on one workload:
// what a claimed gain is judged by.
type pairRow struct {
	Workload     string    `json:"workload"`
	Metric       string    `json:"metric"`
	Better       string    `json:"better"`
	Parent       []float64 `json:"parent"` // untraced runs, in pair order
	Change       []float64 `json:"change"`
	ParentMedian float64   `json:"parent_median"`
	ChangeMedian float64   `json:"change_median"`
	ParentIQR    float64   `json:"parent_iqr"`
	Wins         int       `json:"pairs_won"`
	Losses       int       `json:"pairs_lost"`
	Ties         int       `json:"pairs_tied"`
	// Gain: the change won at least nine tenths of the pairs and the
	// medians differ, in the better direction, by more than ParentIQR.
	Gain bool `json:"gain"`
}

// report is the committed BENCH_<pr>.json.
type report struct {
	envelope
	Paired  []pairRow    `json:"paired"`
	Compare []compareRow `json:"compare"`
	Runs    struct {
		Parent []json.RawMessage `json:"parent"`
		Change []json.RawMessage `json:"change"`
	} `json:"runs"`
}

// envelope is what a report says about the whole run.
type envelope struct {
	PR          int             `json:"pr"`
	ParentRev   string          `json:"parent_rev"`
	ChangeRev   string          `json:"change_rev"`
	Seed        int64           `json:"seed"`
	Seconds     float64         `json:"seconds"`
	Pairs       int             `json:"pairs"`
	TracedPairs int             `json:"traced_pairs"`
	When        string          `json:"when"`
	Fingerprint json.RawMessage `json:"fingerprint"`
}

// encode writes the report as JSON a diff can be read in: the envelope on
// the first line, then one line per paired row, compare row and raw run.
func (rep *report) encode() ([]byte, error) {
	head, err := json.Marshal(rep.envelope)
	if err != nil {
		return nil, err
	}
	b := bytes.NewBuffer(head[:len(head)-1]) // reopen the object
	rows := func(lead, indent, name string, n int, row func(int) any) {
		fmt.Fprintf(b, "%s\n%s%q: [", lead, indent, name)
		for i := 0; i < n; i++ {
			line, lerr := json.Marshal(row(i))
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(b, "\n%s %s", indent, line)
			err = errors.Join(err, lerr)
		}
		fmt.Fprintf(b, "\n%s]", indent)
	}
	rows(",", " ", "paired", len(rep.Paired), func(i int) any { return rep.Paired[i] })
	rows(",", " ", "compare", len(rep.Compare), func(i int) any { return rep.Compare[i] })
	b.WriteString(",\n \"runs\": {")
	rows("", "  ", "parent", len(rep.Runs.Parent), func(i int) any { return rep.Runs.Parent[i] })
	rows(",", "  ", "change", len(rep.Runs.Change), func(i int) any { return rep.Runs.Change[i] })
	b.WriteString("\n }\n}\n")
	return b.Bytes(), err
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
}

func run() error {
	parentRev := flag.String("parent", "HEAD", "revision the change is measured against")
	pr := flag.Int("pr", 0, "PR number: the result goes to BENCH_<pr>.json")
	workloads := flag.String("workloads", "", "comma-separated workloads (default: all of BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "benchmark seed; a claim needs one not used in development")
	pairs := flag.Int("pairs", 10, "untraced pairs per workload")
	traced := flag.Int("traced", 1, "traced pairs per workload (per-layer metrics)")
	seconds := flag.Float64("seconds", 0, "timed region per run (default: BENCHMARK.json run_seconds)")
	flag.Parse()
	if *pr <= 0 {
		return fmt.Errorf("need -pr <number>")
	}

	var spec benchSpec
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if *seconds == 0 {
		*seconds = spec.RunSeconds
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if *workloads != "" {
		names = strings.Split(*workloads, ",")
	}

	root, err := os.Getwd()
	if err != nil {
		return err
	}
	dir := filepath.Join(root, ".bench_build", "pair")
	trees := map[string]string{"parent": filepath.Join(dir, "parent"), "change": filepath.Join(dir, "change")}
	outs := map[string]string{"parent": filepath.Join(dir, "parent.jsonl"), "change": filepath.Join(dir, "change.jsonl")}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	for _, t := range trees {
		if err := os.MkdirAll(t, 0o755); err != nil {
			return err
		}
	}
	if err := sh(root, "git archive "+quote(*parentRev)+" | tar -x -C "+quote(trees["parent"])); err != nil {
		return fmt.Errorf("export %s: %w", *parentRev, err)
	}
	if err := copyWorktree(root, trees["change"]); err != nil {
		return fmt.Errorf("copy the working tree: %w", err)
	}

	one := func(side, workload string, trace int) error {
		fmt.Fprintf(os.Stderr, "benchpair: %s %s trace=%d\n", side, workload, trace)
		cmd := exec.Command("bash", filepath.Join(trees[side], "benchmark", "run.sh"),
			"--workload", workload, "--seed", strconv.FormatInt(*seed, 10),
			"--seconds", strconv.FormatFloat(*seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace), "-out", outs[side])
		cmd.Dir = trees[side]
		cmd.Stderr = os.Stderr // a failed operation is in the record too; keep going only on success
		return cmd.Run()
	}
	for _, w := range names {
		for i := 0; i < *pairs+*traced; i++ {
			trace := 0
			if i >= *pairs {
				trace = 1
			}
			order := []string{"parent", "change"}
			if i%2 == 1 {
				order = []string{"change", "parent"}
			}
			for _, side := range order {
				if err := one(side, w, trace); err != nil {
					return fmt.Errorf("%s %s: %w", side, w, err)
				}
			}
		}
	}

	rep := report{envelope: envelope{PR: *pr, Seed: *seed, Seconds: *seconds, Pairs: *pairs, TracedPairs: *traced,
		When: time.Now().UTC().Format(time.RFC3339)}}
	rep.ParentRev = gitOut(root, "rev-parse", *parentRev)
	rep.ChangeRev = gitOut(root, "rev-parse", "HEAD")
	if gitOut(root, "status", "--porcelain") != "" {
		rep.ChangeRev += "+worktree"
	}
	parent, parentRaw, err := load(outs["parent"])
	if err != nil {
		return err
	}
	change, changeRaw, err := load(outs["change"])
	if err != nil {
		return err
	}
	rep.Runs.Parent, rep.Runs.Change = parentRaw, changeRaw
	rep.Fingerprint = parent[0].Fingerprint
	for _, w := range names {
		for _, m := range spec.EndToEnd {
			rep.Paired = append(rep.Paired, pairUp(w, m.Name, m.Better, parent, change))
		}
	}
	table, err := exec.Command("bash", filepath.Join(trees["change"], "benchmark", "run.sh"),
		"-compare", outs["parent"], outs["change"]).Output()
	if _, regressed := err.(*exec.ExitError); err != nil && !regressed {
		return fmt.Errorf("-compare: %w", err)
	}
	os.Stdout.Write(table)
	rep.Compare = parseCompare(table)

	out, err := rep.encode()
	if err != nil {
		return err
	}
	name := fmt.Sprintf("BENCH_%d.json", *pr)
	if err := os.WriteFile(filepath.Join(root, name), out, 0o644); err != nil {
		return err
	}
	fmt.Printf("\n%-18s %-22s %12s %12s %10s %6s  %s\n", "workload", "metric", "parent", "change", "parent IQR", "pairs", "gain")
	for _, p := range rep.Paired {
		fmt.Printf("%-18s %-22s %12.6g %12.6g %10.4g %3d/%-2d  %v\n", p.Workload, p.Metric,
			p.ParentMedian, p.ChangeMedian, p.ParentIQR, p.Wins, len(p.Parent), p.Gain)
	}
	fmt.Println("wrote", name)
	return nil
}

// pairUp reads one end-to-end metric of one workload pair by pair.
func pairUp(workload, metric, better string, parent, change []record) pairRow {
	row := pairRow{Workload: workload, Metric: metric, Better: better}
	pick := func(recs []record) (vals []float64) {
		for _, r := range recs {
			if r.Workload == workload && !r.Trace {
				vals = append(vals, r.Result.Metrics[metric].Value)
			}
		}
		return vals
	}
	row.Parent, row.Change = pick(parent), pick(change)
	sign := 1.0
	if better == "lower" {
		sign = -1
	}
	for i := 0; i < min(len(row.Parent), len(row.Change)); i++ {
		switch d := sign * (row.Change[i] - row.Parent[i]); {
		case d > 0:
			row.Wins++
		case d < 0:
			row.Losses++
		default:
			row.Ties++
		}
	}
	row.ParentMedian, row.ChangeMedian = quantile(row.Parent, 0.5), quantile(row.Change, 0.5)
	row.ParentIQR = quantile(row.Parent, 0.75) - quantile(row.Parent, 0.25)
	n := len(row.Parent)
	row.Gain = n > 0 && 10*row.Wins >= 9*n && sign*(row.ChangeMedian-row.ParentMedian) > row.ParentIQR
	return row
}

// quantile interpolates linearly between order statistics, as the
// benchmark's own spread does.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// load reads a benchmark -out file, decoded and as the raw lines.
func load(path string) ([]record, []json.RawMessage, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var recs []record
	var raws []json.RawMessage
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 64<<10), 4<<20) // a traced record is one long line
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		recs, raws = append(recs, r), append(raws, append(json.RawMessage(nil), sc.Bytes()...))
	}
	if len(recs) == 0 {
		return nil, nil, fmt.Errorf("%s: no runs recorded", path)
	}
	return recs, raws, sc.Err()
}

// parseCompare turns the rows of the benchmark's -compare table into
// values; lines that are not rows (the header, warnings, the regression
// count) are skipped.
func parseCompare(table []byte) []compareRow {
	var rows []compareRow
	for _, line := range strings.Split(string(table), "\n") {
		f := strings.Fields(line)
		if len(f) < 8 {
			continue
		}
		var nums [5]float64
		ok := true
		for i := range nums {
			v, err := strconv.ParseFloat(f[2+i], 64)
			nums[i], ok = v, ok && err == nil
		}
		if !ok {
			continue
		}
		rows = append(rows, compareRow{Workload: f[0], Metric: f[1], Parent: nums[0], Change: nums[1],
			Ratio: nums[2], Spread: nums[3], Bound: nums[4], Verdict: f[7]})
	}
	return rows
}

// copyWorktree copies what a commit of the working tree would hold — the
// tracked files that still exist and the untracked ones git does not
// ignore — into dst.
func copyWorktree(root, dst string) error {
	ls := exec.Command("git", "ls-files", "-z", "--cached", "--others", "--exclude-standard")
	ls.Dir = root
	out, err := ls.Output()
	if err != nil {
		return err
	}
	var list bytes.Buffer
	for _, f := range bytes.Split(out, []byte{0}) {
		if _, err := os.Lstat(filepath.Join(root, string(f))); len(f) > 0 && err == nil {
			list.Write(append(f, 0))
		}
	}
	cp := exec.Command("bash", "-o", "pipefail", "-c", "tar --null -T - -cf - | tar -x -C "+quote(dst))
	cp.Dir, cp.Stdin, cp.Stderr = root, &list, os.Stderr
	return cp.Run()
}

func sh(dir, script string) error {
	cmd := exec.Command("bash", "-o", "pipefail", "-c", script)
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	return cmd.Run()
}

func gitOut(dir string, args ...string) string {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	out, _ := cmd.Output() // an unknown revision was already refused by git archive
	return strings.TrimSpace(string(out))
}

func quote(s string) string { return "'" + strings.ReplaceAll(s, "'", `'\''`) + "'" }
