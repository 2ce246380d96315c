package flow

import (
	"fmt"

	"repro/internal/metrics"
)

// Registry handles for the flow subsystem. Resolved once at package
// init; the hot-path types (Ledger, Window) touch only pre-resolved
// handles, never the registry map.
var (
	ledSheds = metrics.Default().Counter("jbs_flow_sheds_total", "reqs",
		"fetch requests shed by the admission ledger")
	ledShedBytes = metrics.Default().Counter("jbs_flow_shed_bytes_total", "bytes",
		"bytes of fetch requests shed by the admission ledger")
	ledQueued = metrics.Default().Counter("jbs_flow_admit_queued_total", "reqs",
		"fetch requests admitted over budget (queued pressure)")
	ledCredits = metrics.Default().Counter("jbs_flow_credits_total", "grants",
		"credit grants broadcast after ledger recovery")
	ledUsed = metrics.Default().Gauge("jbs_flow_admitted_bytes", "bytes",
		"bytes currently admitted by the ledger (queued + staged + transmitting)")
)

// tenantQueueGauge resolves the per-tenant queue-occupancy gauge. Called
// once per tenant (on first sight), never on the per-request path.
func tenantQueueGauge(tenant string) *metrics.Gauge {
	return metrics.Default().Gauge(
		fmt.Sprintf("jbs_flow_tenant_queue_bytes{tenant=%q}", tenant), "bytes",
		"bytes queued for one tenant in the supplier's DRR scheduler")
}

// WindowGauge resolves the per-node AIMD window-size gauge for the
// merger. Called once per node group, at group creation.
func WindowGauge(node string) *metrics.Gauge {
	return metrics.Default().Gauge(
		fmt.Sprintf("jbs_flow_window{node=%q}", node), "reqs",
		"current AIMD in-flight window toward one supplier node")
}
