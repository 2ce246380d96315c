package flow

import "sync"

// LedgerState is a point-in-time snapshot of one admission ledger.
type LedgerState struct {
	Budget   int64 `json:"budget_bytes"`
	Limit    int64 `json:"limit_bytes"`
	Used     int64 `json:"used_bytes"`
	Queued   int64 `json:"queued_total"`
	Sheds    int64 `json:"sheds_total"`
	Credits  int64 `json:"credits_total"`
	Shedding bool  `json:"shedding"`
	// Draining reports the supplier's graceful-shutdown latch: every new
	// request is shed while the admitted balance runs down to zero.
	Draining bool `json:"draining,omitempty"`
	// DrainSheds counts requests the supplier shed because it was
	// draining (distinct from capacity sheds: these never latch a
	// shedding episode or grant recovery credits).
	DrainSheds int64 `json:"drain_sheds_total,omitempty"`
}

// WindowState is a point-in-time snapshot of one AIMD window.
type WindowState struct {
	Node string `json:"node,omitempty"`
	Size int    `json:"size"`
	Min  int    `json:"min"`
	Max  int    `json:"max"`
}

// TenantState is a point-in-time snapshot of one tenant's DRR queue.
type TenantState struct {
	Tenant      string `json:"tenant"`
	Weight      int64  `json:"weight"`
	Deficit     int64  `json:"deficit_bytes"`
	QueuedBytes int64  `json:"queued_bytes"`
	Active      bool   `json:"active"`
}

// State is one flow participant's full control-plane snapshot: a
// supplier reports its ledger and tenant queues, a merger its per-node
// windows and shed/retry counters.
type State struct {
	// Name identifies the participant (typically its listen or target
	// address role, e.g. "supplier 127.0.0.1:9000").
	Name string `json:"name"`
	// Ledger is the admission ledger snapshot (suppliers only).
	Ledger *LedgerState `json:"ledger,omitempty"`
	// Tenants is the DRR occupancy snapshot (suppliers only).
	Tenants []TenantState `json:"tenants,omitempty"`
	// Windows is the per-node AIMD window snapshot (mergers only).
	Windows []WindowState `json:"windows,omitempty"`
	// Sheds counts shed responses received (mergers only).
	Sheds int64 `json:"sheds,omitempty"`
	// ShedRetries counts parked fetches re-queued after their
	// retry-after backoff (mergers only).
	ShedRetries int64 `json:"shed_retries,omitempty"`
	// Hedges counts speculative duplicate fetches launched by the
	// hedging controller (mergers only).
	Hedges int64 `json:"hedges,omitempty"`
	// HedgeWins counts fetches whose speculative attempt delivered
	// first (mergers only).
	HedgeWins int64 `json:"hedge_wins,omitempty"`
	// HedgeDupBytes counts payload bytes received for attempts that had
	// already lost their race — the price paid for hedging (mergers
	// only).
	HedgeDupBytes int64 `json:"hedge_dup_bytes,omitempty"`
	// HedgeOutstanding is the number of duplicate attempts currently
	// racing (mergers only).
	HedgeOutstanding int `json:"hedge_outstanding,omitempty"`
}

// Source is a flow participant that can snapshot its control-plane
// state for the /debug/jbs/flow endpoint.
type Source interface {
	FlowState() State
}

// registration wraps a Source so unregistration can compare by token
// pointer — Source dynamic types need not be comparable.
type registration struct{ src Source }

// sources is the process-wide participant registry behind Snapshot.
var (
	sourcesMu sync.Mutex
	sources   []*registration
)

// Register adds a participant to the process-wide flow registry and
// returns a function that removes it (call it on Close). The debug
// endpoint's Snapshot walks the registry.
func Register(s Source) (unregister func()) {
	r := &registration{src: s}
	sourcesMu.Lock()
	sources = append(sources, r)
	sourcesMu.Unlock()
	return func() {
		sourcesMu.Lock()
		defer sourcesMu.Unlock()
		for i, v := range sources {
			if v == r {
				sources = append(sources[:i], sources[i+1:]...)
				return
			}
		}
	}
}

// Snapshot collects the FlowState of every registered participant, in
// registration order.
func Snapshot() []State {
	sourcesMu.Lock()
	regs := make([]*registration, len(sources))
	copy(regs, sources)
	sourcesMu.Unlock()
	out := make([]State, 0, len(regs))
	for _, r := range regs {
		out = append(out, r.src.FlowState())
	}
	return out
}
