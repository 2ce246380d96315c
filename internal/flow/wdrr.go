package flow

import (
	"sort"
	"sync"

	"repro/internal/metrics"
)

// DRR is a weighted deficit round-robin scheduler over tenants,
// generalizing the supplier's strict round-robin across MOF groups to
// per-tenant fairness. Arrivals are accounted with Add, the scheduler
// picks the next tenant to serve with Next, and completed service is
// charged with Serve. Each visit tops a tenant's deficit up by
// quantum × weight; a tenant is eligible while its deficit is
// positive. Serving may overdraw the deficit (the caller always serves
// at least one batch, whatever its size, so progress never stalls on a
// huge segment); the debt is repaid from future top-ups, which is what
// keeps long-run byte shares proportional to weights.
//
// The supplier's single prefetch goroutine is the only scheduler
// client, but the /debug/jbs/flow endpoint snapshots occupancy
// concurrently, so all methods take an internal mutex. Per-request
// cost (Add) is one uncontended lock and two integer updates — no
// allocation after a tenant's first request.
type DRR struct {
	mu      sync.Mutex
	quantum int64
	weights map[string]int64
	tenants map[string]*drrTenant
	ring    []*drrTenant // active tenants, round-robin order
	next    int
	turns   int64
}

// drrTenant is one tenant's scheduling state.
type drrTenant struct {
	name    string
	weight  int64
	deficit int64
	queued  metrics.Mirror // bytes accepted but not yet served, mirrored per tenant
	active  bool           // member of the ring
}

// NewDRR creates a scheduler with the given tenant weights (absent
// tenants weigh 1); weights must be positive (enforced by
// Config.ApplyDefaults).
func NewDRR(weights map[string]int64) *DRR {
	return &DRR{
		quantum: quantum,
		weights: weights,
		tenants: make(map[string]*drrTenant),
	}
}

// tenant returns (creating on first sight) the named tenant's state.
// Callers hold d.mu.
func (d *DRR) tenant(name string) *drrTenant {
	t, ok := d.tenants[name]
	if !ok {
		w := int64(1)
		if d.weights != nil {
			if tw, ok := d.weights[name]; ok {
				w = tw
			}
		}
		t = &drrTenant{name: name, weight: w, queued: metrics.NewMirror(tenantQueueGauge(name))}
		d.tenants[name] = t
	}
	return t
}

// Cost is the scheduler charge for one request carrying bytes of
// payload: the byte count, floored at one unit. Zero-length segments
// (empty MOF partitions are valid) must not charge zero — a tenant
// whose remaining queue were all empty segments would otherwise hit
// queued == 0 and deactivate with requests still pending, and those
// fetches would never be served. Serve callers must charge the same
// Cost per completed request so queued reaches zero exactly when the
// tenant has no pending requests.
func Cost(bytes int64) int64 {
	if bytes < 1 {
		return 1
	}
	return bytes
}

// Add accounts the arrival of one request of bytes payload for tenant
// (charged at Cost(bytes)), activating it in the service ring if idle.
func (d *DRR) Add(tenant string, bytes int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	t := d.tenant(tenant)
	t.queued.Set(t.queued.Load() + Cost(bytes))
	if !t.active {
		t.active = true
		d.ring = append(d.ring, t)
	}
}

// Next picks the tenant to serve: the first active tenant, in ring
// order, whose deficit is positive after its top-up. Visiting a tenant
// tops its deficit up by quantum × weight, so even a deeply indebted
// tenant becomes eligible after finitely many rounds; with at least
// one active tenant Next always returns one. ok is false only when
// the ring is empty.
func (d *DRR) Next() (tenant string, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.ring) == 0 {
		return "", false
	}
	for {
		if d.next >= len(d.ring) {
			d.next = 0
		}
		t := d.ring[d.next]
		d.next++
		d.turns++
		t.deficit += d.quantum * t.weight
		// Cap banked credit at one full turn's worth: an idle-ish
		// tenant must not hoard unbounded deficit and later lock out
		// the ring (and the cap keeps the arithmetic overflow-proof).
		if cap := 2 * d.quantum * t.weight; t.deficit > cap {
			t.deficit = cap
		}
		if t.deficit > 0 {
			return t.name, true
		}
	}
}

// Serve charges bytes of completed service to tenant — the sum of
// Cost(request bytes) over the served batch, mirroring what Add
// charged on arrival. The deficit may go negative — the debt of a
// batch larger than the remaining deficit — and is repaid by future
// top-ups. A tenant whose queue drains leaves the ring and forfeits
// any banked deficit, the standard DRR rule that stops an idle tenant
// from bursting later.
func (d *DRR) Serve(tenant string, bytes int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	t, ok := d.tenants[tenant]
	if !ok {
		return
	}
	t.deficit -= bytes
	t.queued.Set(max(t.queued.Load()-bytes, 0))
	if t.queued.Load() == 0 && t.active {
		t.active = false
		t.deficit = 0
		for i, rt := range d.ring {
			if rt == t {
				d.ring = append(d.ring[:i], d.ring[i+1:]...)
				if d.next > i {
					d.next--
				}
				break
			}
		}
	}
}

// Occupancy snapshots every known tenant's queue state for the
// /debug/jbs/flow endpoint, sorted by tenant name.
func (d *DRR) Occupancy() []TenantState {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]TenantState, 0, len(d.tenants))
	for _, t := range d.tenants {
		out = append(out, TenantState{
			Tenant:      t.name,
			Weight:      t.weight,
			Deficit:     t.deficit,
			QueuedBytes: t.queued.Load(),
			Active:      t.active,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
