package bench

import (
	"strconv"
	"strings"
	"testing"
)

func TestAllExperimentsRegistered(t *testing.T) {
	exps := All()
	wantIDs := []string{
		"table1", "fig2a", "fig2b", "fig2c", "fig7a", "fig7b", "fig8",
		"fig9a", "fig9b", "fig9c", "fig9d", "fig10a", "fig10b", "fig10c",
		"fig11", "fig12a", "fig12b", "ablation",
	}
	if len(exps) != len(wantIDs) {
		t.Fatalf("registered %d experiments, want %d", len(exps), len(wantIDs))
	}
	for i, id := range wantIDs {
		if exps[i].ID != id {
			t.Errorf("experiment %d = %s, want %s", i, exps[i].ID, id)
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("FIG7A")
	if err != nil || e.ID != "fig7a" {
		t.Fatalf("ByID case-insensitive lookup failed: %v %v", e.ID, err)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Fatal("unknown id found")
	}
}

func TestReportRendering(t *testing.T) {
	r := &Report{ID: "x", Title: "demo", Header: []string{"a", "bb"}}
	r.AddRow("1", "2")
	r.AddRow("333", "4")
	r.AddNote("note %d", 7)
	s := r.String()
	for _, want := range []string{"== x: demo ==", "a", "bb", "333", "-- note 7"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered report missing %q:\n%s", want, s)
		}
	}
}

func TestTableIReport(t *testing.T) {
	rep := TableI()
	if len(rep.Rows) != 8 {
		t.Fatalf("Table I rows = %d, want 8", len(rep.Rows))
	}
	found := false
	for _, row := range rep.Rows {
		if row[0] == "JBS on RDMA" && row[1] == "RDMA" && row[2] == "InfiniBand" {
			found = true
		}
	}
	if !found {
		t.Fatal("JBS on RDMA row missing or wrong")
	}
}

func TestFig2Reports(t *testing.T) {
	a := Fig2a()
	if len(a.Rows) != 5 {
		t.Fatalf("fig2a rows = %d", len(a.Rows))
	}
	b := Fig2b()
	if len(b.Rows) != 9 {
		t.Fatalf("fig2b rows = %d", len(b.Rows))
	}
	c := Fig2c()
	if len(c.Rows) != 10 {
		t.Fatalf("fig2c rows = %d", len(c.Rows))
	}
	for _, rep := range []*Report{a, b, c} {
		if len(rep.Notes) == 0 {
			t.Errorf("%s has no headline note", rep.ID)
		}
	}
}

// parseCell reads a numeric cell.
func parseCell(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}

func TestFig7aShape(t *testing.T) {
	rep := Fig7a()
	if len(rep.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 input sizes", len(rep.Rows))
	}
	// Columns: size, HadoopIPoIB, HadoopSDP, JBSIPoIB. Times grow with
	// input and JBS wins from 32GB upward.
	var prevH float64
	for i, row := range rep.Rows {
		h := parseCell(t, row[1])
		j := parseCell(t, row[3])
		if h < prevH {
			t.Errorf("row %d: Hadoop time %f not growing", i, h)
		}
		prevH = h
		if i >= 1 && j >= h {
			t.Errorf("row %d (%sGB): JBS (%f) not faster than Hadoop (%f)", i, row[0], j, h)
		}
	}
	if len(rep.Notes) == 0 {
		t.Fatal("no average-improvement notes")
	}
}

func TestFig11Shape(t *testing.T) {
	rep := Fig11()
	if len(rep.Rows) != 7 {
		t.Fatalf("rows = %d, want 7 buffer sizes", len(rep.Rows))
	}
	first := parseCell(t, rep.Rows[0][1]) // IPoIB at 8KB
	knee := parseCell(t, rep.Rows[4][1])  // IPoIB at 128KB
	if knee >= first {
		t.Fatalf("no improvement 8KB (%f) -> 128KB (%f)", first, knee)
	}
}

func TestAblationReport(t *testing.T) {
	rep := Ablation()
	if len(rep.Rows) < 6 {
		t.Fatalf("ablation rows = %d", len(rep.Rows))
	}
	base := parseCell(t, rep.Rows[0][1])
	// Supplier-side ablations must never help (small deltas are expected:
	// the pipelined shuffle has slack inside the map-phase window).
	for _, row := range rep.Rows[1:4] {
		if v := parseCell(t, row[1]); v < base*0.99 {
			t.Errorf("ablated config %q (%f) meaningfully faster than full JBS (%f)", row[0], v, base)
		}
	}
	// 8KB buffers must hurt clearly (the Fig. 11 effect).
	if v := parseCell(t, rep.Rows[3][1]); v < base*1.05 {
		t.Errorf("8KB-buffer ablation (%f) should be clearly slower than %f", v, base)
	}
	// Disabling Hadoop's spills closes part — not all — of the gap.
	h := parseCell(t, rep.Rows[4][1])
	hNoSpill := parseCell(t, rep.Rows[5][1])
	if !(base < hNoSpill && hNoSpill < h) {
		t.Errorf("spill decomposition broken: jbs=%f < hadoop-nospill=%f < hadoop=%f expected",
			base, hNoSpill, h)
	}
}

func TestFunctionalComparison(t *testing.T) {
	cfg := DefaultFunctionalConfig()
	cfg.Lines = 400 // keep the test quick
	rep, err := Functional(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 providers", len(rep.Rows))
	}
	// Column 4 is spill events: baseline spills (tiny budget), JBS never.
	if rep.Rows[0][3] == "0" {
		t.Error("hadoop-http reported zero spills despite tiny budget")
	}
	if jbs := rep.Rows[1]; jbs[3] != "0" || jbs[4] != "0" {
		t.Errorf("%s spilled: %v", jbs[0], jbs)
	}
	// Both providers shuffled the same payload volume.
	if rep.Rows[0][2] != rep.Rows[1][2] {
		t.Errorf("shuffled bytes differ across providers: %v %v", rep.Rows[0][2], rep.Rows[1][2])
	}
}

func TestFunctionalWordCount(t *testing.T) {
	cfg := FunctionalConfig{Benchmark: "WordCount", Lines: 300, Nodes: 2, Reducers: 2, Seed: 7}
	providers, err := FunctionalProviders()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunFunctional(cfg, providers["jbs-tcp"])
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.OutputRecords == 0 {
		t.Fatal("no output records")
	}
	if res.Counters.SpilledBytes != 0 {
		t.Fatal("JBS spilled")
	}
}

func TestRunFunctionalUnknownBenchmark(t *testing.T) {
	providers, _ := FunctionalProviders()
	_, err := RunFunctional(FunctionalConfig{Benchmark: "nope", Lines: 1, Nodes: 1, Reducers: 1},
		providers["jbs-tcp"])
	if err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestHelperFormatting(t *testing.T) {
	if secs(1.25) != "1.2" && secs(1.25) != "1.3" {
		t.Errorf("secs = %q", secs(1.25))
	}
	if ms(0.001) != "1.00" {
		t.Errorf("ms = %q", ms(0.001))
	}
	if pct(0.5) != "50.0%" {
		t.Errorf("pct = %q", pct(0.5))
	}
	if g := gain(100, 80); g < 0.199 || g > 0.201 {
		t.Errorf("gain = %f", g)
	}
	if mean([]float64{1, 2, 3}) != 2 {
		t.Errorf("mean = %f", mean([]float64{1, 2, 3}))
	}
}

func TestReportCSV(t *testing.T) {
	r := &Report{ID: "x", Header: []string{"a", "b"}}
	r.AddRow("1", "two, quoted \"cell\"")
	got := r.CSV()
	want := "a,b\n1,\"two, quoted \"\"cell\"\"\"\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}
