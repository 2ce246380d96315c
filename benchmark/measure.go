package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/metrics"
)

// edge is the process accounting read at one end of a timed region or
// of a window.
type edge struct {
	cpu   map[string]float64 // role -> user+sys seconds
	alloc uint64             // benchmark process cumulative heap allocation
	rssMB float64            // resident set of every process, summed
}

// allocSample names the runtime's cumulative allocation counter (what
// MemStats.TotalAlloc reports); unlike ReadMemStats, reading it does not
// stop the world, so it can be read while the clients run.
const allocSample = "/gc/heap/allocs:bytes"

// readEdge samples CPU time of the benchmark process ("bench", from
// getrusage, which is not rounded to clock ticks) and of every daemon by
// role, the benchmark's cumulative allocation, and the resident set of
// all of them.
func readEdge(daemons map[string][]int) (edge, error) {
	e := edge{cpu: make(map[string]float64)}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return e, err
	}
	e.cpu["bench"] = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
	var err error
	if e.rssMB, err = rssMB(os.Getpid()); err != nil {
		return e, err
	}
	for role, pids := range daemons {
		for _, pid := range pids {
			s, err := cpuSeconds(pid)
			if err != nil {
				return e, err
			}
			e.cpu[role] += s
			mb, err := rssMB(pid)
			if err != nil {
				return e, err
			}
			e.rssMB += mb
		}
	}
	sample := []rtmetrics.Sample{{Name: allocSample}}
	rtmetrics.Read(sample)
	e.alloc = sample[0].Value.Uint64()
	return e, nil
}

// windowSince returns the window between two edges in which the given
// work was done.
func windowSince(a, b edge, seconds float64, bytes, segments int64) window {
	w := window{seconds: seconds, bytes: bytes, segments: segments, allocBytes: b.alloc - a.alloc, rssMB: b.rssMB}
	for role, v := range b.cpu {
		w.cpuSeconds += v - a.cpu[role]
	}
	return w
}

// since fills s with what happened between two edges.
func (s *sample) since(a, b edge) {
	s.cpuSeconds = make(map[string]float64, len(b.cpu))
	for role, v := range b.cpu {
		s.cpuSeconds[role] = v - a.cpu[role]
	}
	s.allocBytes = b.alloc - a.alloc
}

// counterSet holds exported program counters by Prometheus sample name,
// labels stripped and series of one family summed: counters and gauges
// under their name, histograms under name_sum and name_count.
type counterSet map[string]float64

// minus returns c - before, family by family.
func (c counterSet) minus(before counterSet) counterSet {
	out := make(counterSet, len(c))
	for k, v := range c {
		out[k] = v - before[k]
	}
	return out
}

// ratio returns num/(num+rest), or 0 when both are 0.
func ratio(num, rest float64) float64 {
	if num+rest == 0 {
		return 0
	}
	return num / (num + rest)
}

// localCounters reads the benchmark process's own metrics registry, which
// on the job workloads holds every supplier and merger of the job.
func localCounters() counterSet {
	out := make(counterSet)
	for _, s := range metrics.Default().Snapshot() {
		name := s.Name
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if s.Kind == metrics.KindHistogram {
			out[name+"_sum"] += float64(s.Sum)
			out[name+"_count"] += float64(s.Count)
			continue
		}
		out[name] += float64(s.Value)
	}
	return out
}

var scrapeClient = &http.Client{Timeout: 5 * time.Second}

// scrapeCounters sums the /debug/jbs/metrics pages of the given daemons.
func scrapeCounters(debugAddrs []string) (counterSet, error) {
	out := make(counterSet)
	for _, addr := range debugAddrs {
		resp, err := scrapeClient.Get("http://" + addr + "/debug/jbs/metrics")
		if err != nil {
			return nil, err
		}
		err = parseMetricsText(resp.Body, out)
		_ = resp.Body.Close() // read-only body
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", addr, err)
		}
	}
	return out, nil
}

// parseMetricsText adds one Prometheus text page into out. Histogram
// bucket series are skipped: the benchmark quotes no quantile from the
// program's log2 buckets.
func parseMetricsText(r io.Reader, out counterSet) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return fmt.Errorf("malformed sample line %q", line)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if strings.HasSuffix(name, "_bucket") {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return fmt.Errorf("malformed sample line %q", line)
		}
		out[name] += v
	}
	return sc.Err()
}

// supplierLayerMetrics turns a supplier-side counter delta into the
// per-layer metrics both workload kinds share, per operation.
func supplierLayerMetrics(c counterSet, ops float64, into map[string]float64) {
	served := c["jbs_supplier_requests_total"]
	into["core.supplier_requests"] = served / ops
	// A cold fetch counts one DataCache miss (the xmit-side Pin) and, once
	// staged, one hit, so the raw hit ratio of an all-cold run is 0.5;
	// misses per segment served is the ratio that reads 1 when cold.
	if served > 0 {
		into["core.datacache_stage_miss_ratio"] = c["jbs_datacache_misses_total"] / served
	}
	into["core.datacache_evictions"] = c["jbs_datacache_evictions_total"] / ops
	into["core.sheds"] = (c["jbs_flow_sheds_total"] + c["jbs_supplier_drain_sheds_total"]) / ops
	into["mof.segment_reads"] = c["jbs_segment_read_ns_count"] / ops
	into["mof.segment_read_mb"] = c["jbs_segment_read_bytes_total"] / 1e6 / ops
	into["mof.segment_read_s"] = c["jbs_segment_read_ns_sum"] / 1e9 / ops
	into["mof.filecache_hit_ratio"] = ratio(c["jbs_filecache_hits_total"], c["jbs_filecache_misses_total"])
}
