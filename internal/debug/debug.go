// Package debug serves the opt-in /debug/jbs observability endpoints:
// the full metrics registry in Prometheus text format, the per-segment
// fetch trace dump, and the buffer pool's size-class lease accounting.
// Nothing here sits on the shuffle data path — handlers read the same
// atomics the hot path writes — so serving costs a run nothing beyond the
// HTTP traffic itself. Wired into jbsrun via the -debug flag; see
// docs/OBSERVABILITY.md.
package debug

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"

	"repro/internal/autoscale"
	"repro/internal/bufpool"
	"repro/internal/flow"
	"repro/internal/metrics"
	"repro/internal/registry"
)

// Mux returns a mux serving the /debug/jbs endpoint tree:
//
//	/debug/jbs          index of the endpoints below
//	/debug/jbs/metrics  full registry, Prometheus text exposition format
//	/debug/jbs/traces   slowest completed fetch traces
//	                    (?n=N limit, ?enable=1 / ?enable=0, ?reset=1)
//	/debug/jbs/bufpool  buffer pool size-class lease accounting
//	/debug/jbs/flow     flow control plane: ledgers, windows, tenants
//	/debug/jbs/registry discovery registry: membership, leases, shard map
//	/debug/jbs/autoscale elastic fleet controller: signals, decisions, events
//	/debug/jbs/pprof/   net/http/pprof: heap, profile?seconds=N, goroutine,
//	                    allocs, block, mutex, trace, ... (index at the root)
func Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/jbs", handleIndex)
	mux.HandleFunc("/debug/jbs/", handleIndex)
	mux.HandleFunc("/debug/jbs/metrics", handleMetrics)
	mux.HandleFunc("/debug/jbs/traces", handleTraces)
	mux.HandleFunc("/debug/jbs/bufpool", handleBufpool)
	mux.HandleFunc("/debug/jbs/flow", handleFlow)
	mux.HandleFunc("/debug/jbs/registry", handleRegistry)
	mux.HandleFunc("/debug/jbs/autoscale", handleAutoscale)
	mux.HandleFunc("/debug/jbs/pprof/", handlePprof)
	return mux
}

// Serve starts an HTTP server for the /debug/jbs endpoints on addr and
// returns the bound listener (addr may use port 0). The server runs until
// the listener is closed.
func Serve(addr string) (net.Listener, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("debug: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: Mux()}
	go func() {
		// Serve returns once the listener closes; that shutdown error is
		// the expected way down, not a condition to report.
		_ = srv.Serve(lis)
	}()
	return lis, nil
}

// handlePprof serves net/http/pprof under /debug/jbs/pprof/. The package's
// own index handler dispatches on the fixed path /debug/pprof/, so the
// name is taken off this mux's prefix here and the profile's handler
// called directly; the index page's links are relative and work as they
// are.
func handlePprof(w http.ResponseWriter, r *http.Request) {
	switch name := strings.TrimPrefix(r.URL.Path, "/debug/jbs/pprof/"); name {
	case "":
		pprof.Index(w, r)
	case "cmdline":
		pprof.Cmdline(w, r)
	case "profile":
		pprof.Profile(w, r)
	case "symbol":
		pprof.Symbol(w, r)
	case "trace":
		pprof.Trace(w, r)
	default:
		pprof.Handler(name).ServeHTTP(w, r)
	}
}

func handleIndex(w http.ResponseWriter, r *http.Request) {
	fmt.Fprint(w, "jbs debug endpoints:\n"+
		"  /debug/jbs/metrics  full metrics registry (Prometheus text format)\n"+
		"  /debug/jbs/traces   slowest fetch traces (?n=N, ?enable=1, ?reset=1)\n"+
		"  /debug/jbs/bufpool  buffer pool size-class lease accounting\n"+
		"  /debug/jbs/flow     flow control plane: admission ledgers, AIMD windows, tenant queues\n"+
		"  /debug/jbs/registry discovery registry: supplier membership, draining flags, shard ownership\n"+
		"  /debug/jbs/autoscale elastic fleet controller: last signals, desired size, scale events\n"+
		"  /debug/jbs/pprof/   runtime profiles (go tool pprof http://HOST/debug/jbs/pprof/heap, profile?seconds=N, ...)\n")
	// One-line hedging summary across every in-process merger; the full
	// jbs_merger_hedge_* family lives in /debug/jbs/metrics.
	var hedges, wins, dupBytes int64
	var outstanding int
	for _, st := range flow.Snapshot() {
		hedges += st.Hedges
		wins += st.HedgeWins
		dupBytes += st.HedgeDupBytes
		outstanding += st.HedgeOutstanding
	}
	if hedges > 0 || outstanding > 0 {
		fmt.Fprintf(w, "hedged fetches: %d launched, %d wins, %d duplicate bytes, %d racing now\n",
			hedges, wins, dupBytes, outstanding)
	}
}

func handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = metrics.Default().WriteText(w)
}

func handleTraces(w http.ResponseWriter, r *http.Request) {
	t := metrics.DefaultTracer()
	q := r.URL.Query()
	switch q.Get("enable") {
	case "1":
		t.Enable()
	case "0":
		t.Disable()
	}
	if q.Get("reset") == "1" {
		t.Reset()
	}
	n := 20
	if v, err := strconv.Atoi(q.Get("n")); err == nil && v > 0 {
		n = v
	}
	fmt.Fprintf(w, "tracer enabled=%v, %d completed traces in ring\n", t.Enabled(), t.Len())
	if !t.Enabled() && t.Len() == 0 {
		fmt.Fprint(w, "tracer is off: enable with ?enable=1 (or jbsrun -trace) and re-run a shuffle\n")
		return
	}
	for i, tr := range t.Slowest(n) {
		fmt.Fprintf(w, "%3d. %s\n", i+1, tr)
	}
}

func handleBufpool(w http.ResponseWriter, r *http.Request) {
	stats := bufpool.Default().ClassStats()
	var outstanding int64
	fmt.Fprintf(w, "%-10s %12s %12s %12s\n", "class", "gets", "puts", "outstanding")
	for _, st := range stats {
		if st.Gets == 0 && st.Puts == 0 {
			continue
		}
		fmt.Fprintf(w, "%-10s %12d %12d %12d\n", st.Label(), st.Gets, st.Puts, st.Outstanding())
		outstanding += st.Outstanding()
	}
	fmt.Fprintf(w, "total outstanding leases: %d (nonzero at idle means a leak; see docs/PERF.md)\n", outstanding)
}

// handleFlow dumps the control-plane state of every registered flow
// participant (suppliers: admission ledger and tenant queues; mergers:
// per-node AIMD windows and shed counters) as indented JSON.
func handleFlow(w http.ResponseWriter, r *http.Request) {
	states := flow.Snapshot()
	w.Header().Set("Content-Type", "application/json")
	if len(states) == 0 {
		fmt.Fprint(w, "[]\n")
		return
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(states)
}

// handleRegistry dumps every in-process registry server's membership and
// shard-ownership state as indented JSON — epoch, shard→supplier owner
// table, and each supplier's lease (draining flag included). Empty when
// this process hosts no registry (suppliers and mergers are clients;
// point this at jbsregistryd's -debug address).
func handleRegistry(w http.ResponseWriter, r *http.Request) {
	states := registry.Snapshot()
	w.Header().Set("Content-Type", "application/json")
	if len(states) == 0 {
		fmt.Fprint(w, "[]\n")
		return
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(states)
}

// handleAutoscale dumps every in-process autoscaler's control state as
// indented JSON — the signals it last saw (live fleet, shed rate, queue
// depth, ledger pressure), the size its policies want and why, the
// instances it manages, and the recent scale-event ring. Empty when
// this process hosts no autoscaler (point this at jbsautoscalerd's
// -debug address).
func handleAutoscale(w http.ResponseWriter, r *http.Request) {
	states := autoscale.Snapshot()
	w.Header().Set("Content-Type", "application/json")
	if len(states) == 0 {
		fmt.Fprint(w, "[]\n")
		return
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(states)
}
