package autoscale

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/registry"
)

// serveFlow runs an httptest server answering /debug/jbs/flow with the
// given states and returns its host:port (the DebugAddr shape suppliers
// advertise).
func serveFlow(t *testing.T, states []flow.State) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/debug/jbs/flow" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(states); err != nil {
			t.Errorf("encode flow states: %v", err)
		}
	}))
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

func TestFleetCollectorSamplesFleet(t *testing.T) {
	s, err := registry.NewServer(registry.ServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := registry.NewClient(s.Addr())
	defer c.Close()

	// sup-full advertises a debug endpoint whose flow snapshot carries a
	// merger state (must be skipped) plus the matching supplier state.
	fullDebug := serveFlow(t, []flow.State{
		{Name: "merger 127.0.0.1:9"},
		{Name: "supplier 127.0.0.1:7001", Ledger: &flow.LedgerState{
			Budget: 1000, Used: 400, Sheds: 7,
		}, Tenants: []flow.TenantState{
			{Tenant: "light", QueuedBytes: 30},
			{Tenant: "heavy", QueuedBytes: 12},
		}},
	})
	// sup-fb's state name carries a rewritten bind address; the
	// collector falls back to the only supplier state in the process.
	fbDebug := serveFlow(t, []flow.State{
		{Name: "supplier 0.0.0.0:9999", Ledger: &flow.LedgerState{Sheds: 3}},
	})
	for _, reg := range []registry.SupplierInfo{
		{ID: "sup-full", Addr: "127.0.0.1:7001", DebugAddr: fullDebug},
		{ID: "sup-fb", Addr: "127.0.0.1:7002", DebugAddr: fbDebug},
		{ID: "sup-silent", Addr: "127.0.0.1:7003"},
		{ID: "sup-dead", Addr: "127.0.0.1:7004", DebugAddr: "127.0.0.1:1"},
	} {
		if err := c.RegisterSupplier(reg); err != nil {
			t.Fatal(err)
		}
	}

	httpClient := &http.Client{Timeout: 2 * time.Second}
	t.Cleanup(httpClient.CloseIdleConnections)
	col := &FleetCollector{Registry: c, HTTP: httpClient}
	sample, err := col.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if sample.Epoch == 0 {
		t.Fatal("sample carries no registry epoch")
	}
	if len(sample.Suppliers) != 4 || sample.Live() != 4 {
		t.Fatalf("sample = %+v, want 4 live suppliers", sample.Suppliers)
	}
	byID := make(map[string]SupplierSample, len(sample.Suppliers))
	for _, sup := range sample.Suppliers {
		byID[sup.ID] = sup
	}

	full := byID["sup-full"]
	if !full.Reachable {
		t.Fatalf("sup-full unreachable: %+v", full)
	}
	if full.AdmittedBytes != 400 || full.BudgetBytes != 1000 || full.Sheds != 7 {
		t.Fatalf("sup-full ledger signals = %+v", full)
	}
	if full.QueuedBytes != 42 {
		t.Fatalf("sup-full queued = %d, want 42 (tenant sum)", full.QueuedBytes)
	}

	if fb := byID["sup-fb"]; !fb.Reachable || fb.Sheds != 3 {
		t.Fatalf("sup-fb fallback match = %+v, want reachable with 3 sheds", fb)
	}

	// No debug address and a dead one both degrade to membership-only.
	for _, id := range []string{"sup-silent", "sup-dead"} {
		if sup := byID[id]; sup.Reachable || sup.Sheds != 0 || sup.QueuedBytes != 0 {
			t.Fatalf("%s = %+v, want unreachable with zero signals", id, sup)
		}
	}
}

func TestSampleLiveExcludesDraining(t *testing.T) {
	s := Sample{Suppliers: []SupplierSample{
		{ID: "a"},
		{ID: "b", Draining: true},
		{ID: "c"},
	}}
	if got := s.Live(); got != 2 {
		t.Fatalf("Live() = %d, want 2", got)
	}
}
