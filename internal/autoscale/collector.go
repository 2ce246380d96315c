package autoscale

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/flow"
	"repro/internal/registry"
)

// SupplierSample is one supplier's signals at collection time.
type SupplierSample struct {
	ID, Addr string
	// DebugAddr is the advertised /debug/jbs address ("" if the
	// supplier does not advertise one).
	DebugAddr string
	// Draining marks a supplier mid-handoff; it holds a lease but owns
	// no shards and does not count toward the live fleet.
	Draining bool
	// Reachable reports whether the flow poll succeeded; the signal
	// fields below are zero when it is false.
	Reachable bool
	// AdmittedBytes and BudgetBytes are the admission ledger's current
	// occupancy and configured budget (zero when flow control is off).
	AdmittedBytes, BudgetBytes int64
	// QueuedBytes sums the supplier's DRR tenant queues.
	QueuedBytes int64
	// Sheds is the ledger's cumulative capacity-shed counter; the
	// autoscaler differences it across ticks for the shed rate.
	Sheds int64
}

// Sample is one collection cycle's view of the fleet.
type Sample struct {
	// Epoch is the registry's ownership epoch at collection time.
	Epoch uint64
	// Suppliers lists every registered supplier, draining included.
	Suppliers []SupplierSample
}

// Live counts the non-draining suppliers.
func (s Sample) Live() int {
	n := 0
	for _, sup := range s.Suppliers {
		if !sup.Draining {
			n++
		}
	}
	return n
}

// Collector samples the fleet. Implementations must be safe to call
// from the autoscaler loop; a returned error skips the tick.
type Collector interface {
	Collect() (Sample, error)
}

// FleetCollector is the production collector: registry ownership map
// for membership, each supplier's advertised /debug/jbs/flow endpoint
// for flow signals. A supplier without a debug address (or with an
// unreachable one) still counts toward membership — its signals read
// zero and Reachable is false, so policies act on the suppliers that do
// report rather than stalling the loop.
type FleetCollector struct {
	// Registry resolves the membership map.
	Registry *registry.Client
	// HTTP performs the flow polls. Nil means a client with a 2s
	// timeout (a collector must never block a tick on one dead
	// supplier).
	HTTP *http.Client
}

// defaultPollClient bounds a flow poll; shared across collectors.
var defaultPollClient = &http.Client{Timeout: 2 * time.Second}

func (c *FleetCollector) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return defaultPollClient
}

// Collect implements Collector.
func (c *FleetCollector) Collect() (Sample, error) {
	if c.Registry == nil {
		return Sample{}, fmt.Errorf("autoscale: FleetCollector needs a registry client")
	}
	m, err := c.Registry.FetchMap()
	if err != nil {
		return Sample{}, err
	}
	s := Sample{Epoch: m.Epoch}
	for _, info := range m.Suppliers {
		sup := SupplierSample{
			ID:        info.ID,
			Addr:      info.Addr,
			DebugAddr: info.DebugAddr,
			Draining:  info.Draining,
		}
		if info.DebugAddr != "" {
			if st, err := c.pollFlow(info.DebugAddr, info.Addr); err == nil {
				sup.Reachable = true
				if st.Ledger != nil {
					sup.AdmittedBytes = st.Ledger.Used
					sup.BudgetBytes = st.Ledger.Budget
					sup.Sheds = st.Ledger.Sheds
				}
				for _, t := range st.Tenants {
					sup.QueuedBytes += t.QueuedBytes
				}
			}
		}
		s.Suppliers = append(s.Suppliers, sup)
	}
	return s, nil
}

// pollFlow fetches /debug/jbs/flow from one supplier's debug address
// and returns the flow state belonging to the supplier serving
// fetchAddr. A debug endpoint lists every flow participant in its
// process (tests run several suppliers in one), so states are matched
// by the fetch address embedded in their name.
func (c *FleetCollector) pollFlow(debugAddr, fetchAddr string) (flow.State, error) {
	resp, err := c.httpClient().Get("http://" + debugAddr + "/debug/jbs/flow")
	if err != nil {
		return flow.State{}, err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return flow.State{}, fmt.Errorf("autoscale: poll %s: status %s", debugAddr, resp.Status)
	}
	var states []flow.State
	if err := json.NewDecoder(resp.Body).Decode(&states); err != nil {
		return flow.State{}, fmt.Errorf("autoscale: poll %s: %w", debugAddr, err)
	}
	var fallback *flow.State
	for i := range states {
		st := &states[i]
		if !strings.HasPrefix(st.Name, "supplier ") {
			continue
		}
		if strings.HasSuffix(st.Name, " "+fetchAddr) {
			return *st, nil
		}
		if fallback == nil {
			fallback = st
		}
	}
	if fallback != nil {
		// One supplier per process is the deployment norm; its name may
		// carry a rewritten address (0.0.0.0 binds).
		return *fallback, nil
	}
	return flow.State{}, fmt.Errorf("autoscale: poll %s: no supplier flow state", debugAddr)
}
