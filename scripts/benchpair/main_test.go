package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// TestReportEncodesOneLinePerRow writes a report the size of a real one
// and reads it back: the JSON must be valid, decode into an equal report,
// and keep to one line per paired row, compare row and raw run.
func TestReportEncodesOneLinePerRow(t *testing.T) {
	rep := report{envelope: envelope{PR: 29, ParentRev: "abc", ChangeRev: "abc+worktree", Seed: 1,
		Seconds: 24, Pairs: 10, TracedPairs: 1, When: "2026-10-16T00:00:00Z",
		Fingerprint: json.RawMessage(`{"nproc":2,"go_version":"go1.24.0"}`)}}
	for w := 0; w < 4; w++ {
		for m := 0; m < 7; m++ {
			rep.Paired = append(rep.Paired, pairRow{Workload: fmt.Sprint("w", w), Metric: fmt.Sprint("m", m),
				Better: "lower", Parent: []float64{1.5, 2, 3}, Change: []float64{1, 2, 4},
				ParentMedian: 2, ChangeMedian: 2, ParentIQR: 0.75, Wins: 1, Losses: 1, Ties: 1})
			rep.Compare = append(rep.Compare, compareRow{Workload: fmt.Sprint("w", w), Metric: fmt.Sprint("m", m),
				Parent: 2, Change: 2, Ratio: 1, Spread: 0.1, Bound: 0.25, Verdict: "ok"})
		}
		for i := 0; i < 11; i++ {
			run := json.RawMessage(fmt.Sprintf(`{"workload":"w%d","seed":1,"result":{"metrics":{"x":{"value":%d}}}}`, w, i))
			rep.Runs.Parent = append(rep.Runs.Parent, run)
			rep.Runs.Change = append(rep.Runs.Change, run)
		}
	}
	out, err := rep.encode()
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(out) {
		t.Fatalf("not valid JSON:\n%s", out)
	}
	var back report
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, rep) {
		t.Fatalf("round trip changed the report:\n got %+v\nwant %+v", back, rep)
	}
	rows := len(rep.Paired) + len(rep.Compare)
	runs := len(rep.Runs.Parent) + len(rep.Runs.Change)
	if lines := bytes.Count(out, []byte("\n")); lines > rows+runs+20 {
		t.Fatalf("%d lines for %d rows and %d runs, want at most %d", lines, rows, runs, rows+runs+20)
	}

	// Empty sections still make valid JSON.
	empty := report{envelope: envelope{PR: 1, Fingerprint: json.RawMessage(`{}`)}}
	if out, err := empty.encode(); err != nil || !json.Valid(out) {
		t.Fatalf("empty report: %v\n%s", err, out)
	}
}
