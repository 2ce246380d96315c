package analysis

import (
	"fmt"
	"go/token"
	"strings"
)

// ignorePrefix introduces a suppression directive:
//
//	//jbsvet:ignore <check> <reason>
//
// The directive silences findings of <check> ("all" silences every check)
// on its own line and on the line directly below it, so it works both as a
// trailing comment and as a comment above the flagged statement. A reason
// is mandatory; directives without one are reported as findings so
// suppressions stay auditable.
const ignorePrefix = "//jbsvet:ignore"

// suppressionEntry is one parsed directive tracked by a
// suppressionTable, with whether it suppressed anything during the scan.
type suppressionEntry struct {
	check string
	pos   token.Position
	used  bool
}

// suppressionTable collects every directive seen during one Runner scan.
// Base source files are parsed twice when a package has in-package tests
// (once for the base unit, once merged); entries are deduplicated by
// file, line, and check so usage accumulates across both passes.
type suppressionTable struct {
	entries map[string]*suppressionEntry // "file:line:check"
	order   []*suppressionEntry
	// malformed directives, deduplicated by position.
	malformed     []Finding
	malformedSeen map[string]bool
}

func newSuppressionTable() *suppressionTable {
	return &suppressionTable{
		entries:       make(map[string]*suppressionEntry),
		malformedSeen: make(map[string]bool),
	}
}

// collect parses pkg's //jbsvet:ignore directives into the table.
func (t *suppressionTable) collect(pkg *Package) {
	for _, file := range pkg.Files {
		for _, group := range file.Comments {
			for _, c := range group.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimPrefix(c.Text, ignorePrefix)
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					if !t.malformedSeen[key] {
						t.malformedSeen[key] = true
						t.malformed = append(t.malformed, Finding{
							Pos:     pos,
							Check:   "suppress",
							Message: "malformed //jbsvet:ignore: need \"//jbsvet:ignore <check> <reason>\"",
						})
					}
					continue
				}
				key := fmt.Sprintf("%s:%d:%s", pos.Filename, pos.Line, fields[0])
				if _, ok := t.entries[key]; ok {
					continue
				}
				e := &suppressionEntry{check: fields[0], pos: pos}
				t.entries[key] = e
				t.order = append(t.order, e)
			}
		}
	}
}

// filter drops findings silenced by a collected directive, marking the
// directives used.
func (t *suppressionTable) filter(findings []Finding) []Finding {
	var kept []Finding
	for _, f := range findings {
		if t.suppressFinding(f) {
			continue
		}
		kept = append(kept, f)
	}
	return kept
}

func (t *suppressionTable) suppressFinding(f Finding) bool {
	hit := false
	for _, line := range []int{f.Pos.Line, f.Pos.Line - 1} {
		for _, check := range []string{f.Check, "all"} {
			key := fmt.Sprintf("%s:%d:%s", f.Pos.Filename, line, check)
			if e, ok := t.entries[key]; ok {
				e.used = true
				hit = true
			}
		}
	}
	return hit
}

// stale reports directives that silenced nothing during the scan — the
// code they excused has moved or been fixed, or their check does not run
// over this file at all — so the suppression now only hides future
// regressions.
func (t *suppressionTable) stale() []Finding {
	var fs []Finding
	for _, e := range t.order {
		if !e.used {
			fs = append(fs, Finding{
				Pos:   e.pos,
				Check: "staleignore",
				Message: fmt.Sprintf(
					"//jbsvet:ignore %s suppresses nothing: no %s finding on this line or the next; delete the directive",
					e.check, e.check),
			})
		}
	}
	return fs
}

// ApplySuppressions filters findings through the package's
// //jbsvet:ignore directives. It returns the surviving findings and, as a
// second slice, findings for malformed directives (missing check name or
// reason). The Runner uses a shared suppressionTable across packages;
// this standalone form is for single-package use (tests, external
// tooling).
func ApplySuppressions(pkg *Package, findings []Finding) (kept, malformed []Finding) {
	t := newSuppressionTable()
	t.collect(pkg)
	kept = t.filter(findings)
	return kept, t.malformed
}

// position is a small helper for checks.
func position(pkg *Package, pos token.Pos) token.Position {
	return pkg.Fset.Position(pos)
}
