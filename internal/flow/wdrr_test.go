package flow

import "testing"

// drain runs the scheduler until every tenant's queue empties, serving
// at most batch bytes (but at least one queued batch) per turn, and
// returns the bytes served per tenant in the first `horizon` turns.
// It mirrors how the supplier's prefetch loop consumes the scheduler.
func drain(t *testing.T, d *DRR, queued map[string]int64, batch int64, horizon int) map[string]int64 {
	t.Helper()
	served := make(map[string]int64)
	remaining := make(map[string]int64, len(queued))
	for tn, b := range queued {
		remaining[tn] = b
	}
	for turn := 0; ; turn++ {
		tn, ok := d.Next()
		if !ok {
			return served
		}
		n := batch
		if n > remaining[tn] {
			n = remaining[tn]
		}
		d.Serve(tn, n)
		remaining[tn] -= n
		if turn < horizon {
			served[tn] += n
		}
		if turn > 100000 {
			t.Fatal("scheduler did not drain (livelock)")
		}
	}
}

func TestDRRWeightedShares(t *testing.T) {
	d := newDRR(map[string]int64{"heavy": 3, "light": 1})
	queued := map[string]int64{"heavy": 300000, "light": 300000}
	d.Add("heavy", queued["heavy"])
	d.Add("light", queued["light"])

	// While both tenants stay backlogged (the first 100 turns), service
	// must split close to the 3:1 weights. Batches are 3x the quantum —
	// as in the supplier, where a prefetch batch outweighs one quantum —
	// so serving drives the light tenant's deficit negative and the
	// scheduler skips it for the turns that repay the debt.
	served := drain(t, d, queued, 3000, 100)
	ratio := float64(served["heavy"]) / float64(served["light"])
	if ratio < 2.5 || ratio > 3.5 {
		t.Errorf("heavy:light = %d:%d (ratio %.2f), want ~3", served["heavy"], served["light"], ratio)
	}
}

func TestDRRNoStarvation(t *testing.T) {
	d := newDRR(map[string]int64{"hog": 100})
	// The hog outweighs the default-weight tenant 100:1, and its batches
	// overdraw the deficit every turn — yet the light tenant must still
	// be served within a bounded number of turns.
	d.Add("hog", 1<<30)
	d.Add("meek", 4000)
	servedMeek := false
	for turn := 0; turn < 300 && !servedMeek; turn++ {
		tn, ok := d.Next()
		if !ok {
			t.Fatal("ring empty with queued work")
		}
		d.Serve(tn, 1000)
		if tn == "meek" {
			servedMeek = true
		}
	}
	if !servedMeek {
		t.Fatal("light tenant starved by a 100x-weighted hog")
	}
}

func TestDRRHugeBatchDoesNotStall(t *testing.T) {
	d := newDRR(nil)
	// One batch 50x the quantum: served in one turn (the caller always
	// serves at least one batch), leaving a debt repaid by later top-ups.
	d.Add("big", 50000)
	d.Add("small", 1000)
	turns := 0
	for {
		tn, ok := d.Next()
		if !ok {
			break
		}
		if tn == "big" {
			d.Serve(tn, 50000)
		} else {
			d.Serve(tn, 1000)
		}
		if turns++; turns > 200 {
			t.Fatal("scheduler did not drain after an oversized batch")
		}
	}
	if turns > 100 {
		t.Errorf("took %d turns to drain two tenants", turns)
	}
}

func TestDRRDrainForfeitsDeficit(t *testing.T) {
	d := newDRR(nil)
	d.Add("a", 500)
	tn, ok := d.Next()
	if !ok || tn != "a" {
		t.Fatalf("Next() = %q, %v", tn, ok)
	}
	d.Serve("a", 500) // drains: leaves the ring, forfeits banked deficit
	if _, ok := d.Next(); ok {
		t.Fatal("drained tenant still in the ring")
	}
	// Re-activation starts from zero deficit, not banked credit.
	d.Add("a", 100)
	for _, st := range d.Occupancy() {
		if st.Tenant == "a" && st.Deficit != 0 {
			t.Errorf("re-activated tenant kept deficit %d, want 0", st.Deficit)
		}
	}
}

func TestDRRZeroLengthRequestsKeepTenantActive(t *testing.T) {
	d := newDRR(nil)
	// One real segment plus two empty MOF partitions. Cost floors the
	// empty ones at one unit each; if they charged zero, serving the
	// real segment alone would drain the tenant's byte account and
	// deactivate it with two requests still pending — fetches that
	// would then never be served.
	d.Add("a", 4096)
	d.Add("a", 0)
	d.Add("a", 0)
	d.Serve("a", Cost(4096))
	if tn, ok := d.Next(); !ok || tn != "a" {
		t.Fatalf("Next() = %q, %v after serving the non-empty segment; zero-length requests stranded", tn, ok)
	}
	d.Serve("a", Cost(0))
	if tn, ok := d.Next(); !ok || tn != "a" {
		t.Fatalf("Next() = %q, %v with one zero-length request pending", tn, ok)
	}
	d.Serve("a", Cost(0))
	if _, ok := d.Next(); ok {
		t.Fatal("tenant still active after every request was served")
	}
}

func TestCostFloorsAtOne(t *testing.T) {
	for _, tc := range []struct{ bytes, want int64 }{
		{-1, 1}, {0, 1}, {1, 1}, {4096, 4096},
	} {
		if got := Cost(tc.bytes); got != tc.want {
			t.Errorf("Cost(%d) = %d, want %d", tc.bytes, got, tc.want)
		}
	}
}

func TestDRROccupancySorted(t *testing.T) {
	d := newDRR(map[string]int64{"b": 2})
	d.Add("c", 10)
	d.Add("a", 20)
	d.Add("b", 30)
	occ := d.Occupancy()
	if len(occ) != 3 {
		t.Fatalf("Occupancy() has %d tenants, want 3", len(occ))
	}
	for i, want := range []string{"a", "b", "c"} {
		if occ[i].Tenant != want {
			t.Errorf("occ[%d] = %q, want %q", i, occ[i].Tenant, want)
		}
	}
	if occ[1].Weight != 2 || !occ[1].Active || occ[1].QueuedBytes != 30 {
		t.Errorf("tenant b state = %+v", occ[1])
	}
}

// newDRR builds a scheduler with a 1000-byte quantum, so the tests'
// arithmetic stays in small round numbers.
func newDRR(weights map[string]int64) *DRR {
	d := NewDRR(weights)
	d.quantum = 1000
	return d
}
