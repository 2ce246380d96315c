// Command jbsvet is the repo-specific static-analysis gate for the JBS
// tree. It loads packages with go/parser + go/types (stdlib only, no
// third-party analysis framework) and enforces the concurrency and
// correctness invariants the shuffle pipeline depends on; see
// docs/STATIC_ANALYSIS.md for the check catalogue and the
// //jbsvet:ignore suppression syntax.
//
// Usage:
//
//	jbsvet [-timing] [patterns]
//
// Patterns are Go-style package patterns rooted at the module
// ("./...", "./internal/...", "./internal/core"). With no patterns the
// default is "./internal/... ./cmd/...". Every check runs, and a
// //jbsvet:ignore directive that suppresses nothing is itself a finding.
// -timing prints per-check wall time to stderr. Exit status: 0 clean,
// 1 findings, 2 usage or load failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/analysis"
)

func main() {
	timingFlag := flag.Bool("timing", false, "print per-check wall time to stderr")
	flag.Parse()

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "jbsvet:", err)
		os.Exit(2)
	}
	loader, err := analysis.NewLoader(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jbsvet:", err)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./internal/...", "./cmd/..."}
	}
	dirs, err := expandPatterns(loader.Root, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jbsvet:", err)
		os.Exit(2)
	}

	runner := &analysis.Runner{
		Loader: loader,
		Checks: analysis.AllChecks(),
		Scopes: analysis.DefaultScopes(),
	}
	start := time.Now()
	findings, err := runner.RunDirs(dirs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jbsvet:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		pos := f.Pos
		if rel, err := filepath.Rel(cwd, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			pos.Filename = rel
		}
		fmt.Printf("%s: [%s] %s\n", pos, f.Check, f.Message)
	}
	if *timingFlag {
		printTimings(runner, time.Since(start))
	}
	if n := len(findings); n > 0 {
		fmt.Fprintf(os.Stderr, "jbsvet: %d finding(s) in %d package(s) scanned\n", n, len(dirs))
		os.Exit(1)
	}
}

// printTimings reports cumulative per-check wall time, slowest first.
func printTimings(r *analysis.Runner, total time.Duration) {
	type row struct {
		name string
		d    time.Duration
	}
	rows := make([]row, 0, len(r.Timings))
	for name, d := range r.Timings {
		rows = append(rows, row{name, d})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].d > rows[j].d })
	for _, rw := range rows {
		fmt.Fprintf(os.Stderr, "jbsvet: timing %-14s %8.1fms\n", rw.name, float64(rw.d.Microseconds())/1000)
	}
	fmt.Fprintf(os.Stderr, "jbsvet: timing %-14s %8.1fms\n", "total", float64(total.Microseconds())/1000)
}

// expandPatterns turns package patterns into package directories under
// root, via analysis.GoPackageDirs for the recursive "/..." form.
func expandPatterns(root string, patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, p := range patterns {
		p = filepath.ToSlash(p)
		recursive := false
		if rest, ok := strings.CutSuffix(p, "/..."); ok {
			recursive = true
			p = rest
			if p == "." || p == "" {
				p = "."
			}
		}
		base := filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(p, "./")))
		if !recursive {
			if analysis.HasGoFiles(base) {
				add(base)
				continue
			}
			return nil, fmt.Errorf("no Go files in %s", base)
		}
		sub, err := analysis.GoPackageDirs(base)
		if err != nil {
			return nil, err
		}
		for _, d := range sub {
			add(d)
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}
