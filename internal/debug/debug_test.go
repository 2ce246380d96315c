package debug

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/autoscale"
	"repro/internal/bufpool"
	"repro/internal/flow"
	"repro/internal/metrics"
	"repro/internal/registry"
)

func get(t *testing.T, srv *httptest.Server, path string) string {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return string(body)
}

func TestEndpoints(t *testing.T) {
	srv := httptest.NewServer(Mux())
	defer srv.Close()

	// The index lists every endpoint.
	index := get(t, srv, "/debug/jbs")
	for _, want := range []string{"/debug/jbs/metrics", "/debug/jbs/traces", "/debug/jbs/bufpool", "/debug/jbs/pprof/"} {
		if !strings.Contains(index, want) {
			t.Errorf("index missing %s:\n%s", want, index)
		}
	}

	// The metrics endpoint serves the full default registry; exercising the
	// pool guarantees at least the bufpool metrics are present.
	bufpool.Default().Get(1024).Release()
	text := get(t, srv, "/debug/jbs/metrics")
	for _, want := range []string{"# HELP jbs_bufpool_gets_total", "jbs_bufpool_outstanding"} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}

	// Bufpool accounting shows the class we just cycled.
	bp := get(t, srv, "/debug/jbs/bufpool")
	if !strings.Contains(bp, "1KiB") || !strings.Contains(bp, "total outstanding leases:") {
		t.Errorf("unexpected bufpool output:\n%s", bp)
	}

	// Traces: enable over HTTP, record one complete trace, dump it.
	tr := metrics.DefaultTracer()
	defer tr.Disable()
	defer tr.Reset()
	get(t, srv, "/debug/jbs/traces?enable=1&reset=1")
	if !tr.Enabled() {
		t.Fatal("?enable=1 did not enable the tracer")
	}
	tr.Mark("m-1", 0, metrics.StageEnqueued)
	tr.Mark("m-1", 0, metrics.StageDelivered)
	dump := get(t, srv, "/debug/jbs/traces?n=5")
	if !strings.Contains(dump, "m-1/0") {
		t.Errorf("trace dump missing recorded trace:\n%s", dump)
	}
}

// TestPprofEndpoints fetches a heap profile (gzip-compressed protobuf), the
// profile index and an unknown name through the /debug/jbs prefix.
func TestPprofEndpoints(t *testing.T) {
	srv := httptest.NewServer(Mux())
	defer srv.Close()

	if heap := get(t, srv, "/debug/jbs/pprof/heap"); !strings.HasPrefix(heap, "\x1f\x8b") {
		t.Errorf("heap profile is not gzip data: %.20q", heap)
	}
	if text := get(t, srv, "/debug/jbs/pprof/goroutine?debug=1"); !strings.Contains(text, "goroutine profile:") {
		t.Errorf("goroutine profile missing its header:\n%.200s", text)
	}
	if index := get(t, srv, "/debug/jbs/pprof/"); !strings.Contains(index, "heap") || !strings.Contains(index, "goroutine") {
		t.Errorf("pprof index does not list the profiles:\n%.300s", index)
	}
	resp, err := srv.Client().Get(srv.URL + "/debug/jbs/pprof/no-such-profile")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown profile: status %d, want 404", resp.StatusCode)
	}
}

// fakeFlowSource is a minimal flow participant for endpoint tests.
type fakeFlowSource struct{ st flow.State }

func (f fakeFlowSource) FlowState() flow.State { return f.st }

func TestFlowEndpoint(t *testing.T) {
	srv := httptest.NewServer(Mux())
	defer srv.Close()

	// With no registered participants the endpoint serves an empty list.
	if body := get(t, srv, "/debug/jbs/flow"); strings.TrimSpace(body) != "[]" {
		t.Errorf("empty flow snapshot = %q, want []", body)
	}

	src := fakeFlowSource{st: flow.State{
		Name:    "supplier test:1",
		Ledger:  &flow.LedgerState{Budget: 100, Limit: 150, Used: 42, Shedding: true},
		Tenants: []flow.TenantState{{Tenant: "jobA", Weight: 3, QueuedBytes: 7, Active: true}},
	}}
	unregister := flow.Register(src)
	defer unregister()

	body := get(t, srv, "/debug/jbs/flow")
	var states []flow.State
	if err := json.Unmarshal([]byte(body), &states); err != nil {
		t.Fatalf("flow endpoint is not JSON: %v\n%s", err, body)
	}
	if len(states) != 1 || states[0].Name != "supplier test:1" {
		t.Fatalf("unexpected snapshot: %+v", states)
	}
	if states[0].Ledger == nil || states[0].Ledger.Used != 42 || !states[0].Ledger.Shedding {
		t.Errorf("ledger state lost in transit: %+v", states[0].Ledger)
	}
	if len(states[0].Tenants) != 1 || states[0].Tenants[0].Tenant != "jobA" {
		t.Errorf("tenant state lost in transit: %+v", states[0].Tenants)
	}

	// The index mentions the endpoint.
	if index := get(t, srv, "/debug/jbs"); !strings.Contains(index, "/debug/jbs/flow") {
		t.Errorf("index missing /debug/jbs/flow:\n%s", index)
	}
}

func TestRegistryEndpoint(t *testing.T) {
	srv := httptest.NewServer(Mux())
	defer srv.Close()

	// With no registry server in-process the endpoint serves an empty
	// list (supplier and merger processes are clients, not hosts).
	if body := get(t, srv, "/debug/jbs/registry"); strings.TrimSpace(body) != "[]" {
		t.Errorf("empty registry snapshot = %q, want []", body)
	}

	reg, err := registry.NewServer(registry.ServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	c := registry.NewClient(reg.Addr())
	defer c.Close()
	if err := c.Register("sup-debug", "127.0.0.1:7501", nil); err != nil {
		t.Fatal(err)
	}

	body := get(t, srv, "/debug/jbs/registry")
	var states []registry.State
	if err := json.Unmarshal([]byte(body), &states); err != nil {
		t.Fatalf("registry endpoint is not JSON: %v\n%s", err, body)
	}
	if len(states) != 1 || states[0].Shards != 16 {
		t.Fatalf("unexpected snapshot: %+v", states)
	}
	if len(states[0].Suppliers) != 1 || states[0].Suppliers[0].ID != "sup-debug" {
		t.Errorf("supplier registration lost in transit: %+v", states[0].Suppliers)
	}
	for shard, owner := range states[0].Owners {
		if owner != "sup-debug" {
			t.Errorf("shard %d owner = %q, want sup-debug", shard, owner)
		}
	}

	if index := get(t, srv, "/debug/jbs"); !strings.Contains(index, "/debug/jbs/registry") {
		t.Errorf("index missing /debug/jbs/registry:\n%s", index)
	}
}

type fakeAutoscaleSource struct{ st autoscale.State }

func (f fakeAutoscaleSource) AutoscaleState() autoscale.State { return f.st }

func TestAutoscaleEndpoint(t *testing.T) {
	srv := httptest.NewServer(Mux())
	defer srv.Close()

	// With no autoscaler in-process the endpoint serves an empty list.
	if body := get(t, srv, "/debug/jbs/autoscale"); strings.TrimSpace(body) != "[]" {
		t.Errorf("empty autoscale snapshot = %q, want []", body)
	}

	src := fakeAutoscaleSource{st: autoscale.State{
		Name: "autoscaler", Min: 1, Max: 4,
		Live: 3, Desired: 3, ShedRate: 12.5,
		LastReason: "shed-target: shed rate 37.5/s = 12.5/supplier, target 10.0",
		Managed:    []string{"auto-1", "auto-2"},
		Events:     []autoscale.Event{{Action: "up", From: 1, To: 3, Reason: "seeded overload"}},
	}}
	unregister := autoscale.Register(src)
	defer unregister()

	body := get(t, srv, "/debug/jbs/autoscale")
	var states []autoscale.State
	if err := json.Unmarshal([]byte(body), &states); err != nil {
		t.Fatalf("autoscale endpoint is not JSON: %v\n%s", err, body)
	}
	if len(states) != 1 || states[0].Live != 3 || states[0].ShedRate != 12.5 {
		t.Fatalf("unexpected snapshot: %+v", states)
	}
	if len(states[0].Managed) != 2 || states[0].Managed[0] != "auto-1" {
		t.Errorf("managed list lost in transit: %+v", states[0].Managed)
	}
	if len(states[0].Events) != 1 || states[0].Events[0].Action != "up" || states[0].Events[0].To != 3 {
		t.Errorf("event ring lost in transit: %+v", states[0].Events)
	}

	if index := get(t, srv, "/debug/jbs"); !strings.Contains(index, "/debug/jbs/autoscale") {
		t.Errorf("index missing /debug/jbs/autoscale:\n%s", index)
	}
}
