package main

// perLayer computes the per-layer metrics of a traced run: plain is the
// untraced half, traced the half run under the decorators, spans what
// they recorded. Times and counts are per operation (per job, per fetch
// batch), so runs of different length compare. A layer a workload does
// not exercise is left out and reads 0 in the result line.
func perLayer(spec workloadSpec, plain, traced *sample, spans []span, into map[string]float64) {
	ops := float64(len(traced.opSeconds))
	if ops == 0 {
		return
	}
	t := totalsByName(spans)
	per := func(name string) (seconds, calls, self float64) {
		return t[name].seconds / ops, float64(t[name].calls) / ops, t[name].self / ops
	}
	c := traced.counters
	supplierLayerMetrics(c, ops, into)

	root := "core.fetch_batch"
	if spec.job != nil {
		root = "mapred.run"
		into["mapred.run_s"], _, _ = per("mapred.run")
		// The engine starts fetching once eight maps have committed, so
		// map_phase_s is the time to the eighth commit, not to the last.
		into["mapred.map_phase_s"], _, _ = per("mapred.map_phase")
		// merge.Iterator is a concrete type: the heap drain, the reduce
		// function and the DFS write cannot be told apart from outside.
		into["mapred.reduce_tail_s"], _, _ = per("mapred.reduce_tail")
		into["shuffle.fetch_s"], into["shuffle.fetch_calls"], into["shuffle.fetch_self_s"] = per("shuffle.fetch")
		into["merge.add_segment_s"], into["merge.add_segment_calls"], _ = per("merge.add_segment")
		into["merge.finish_s"], _, _ = per("merge.finish")
		into["mapred.map_tasks"] = c["map_tasks"] / ops
		into["mapred.map_spills"] = c["map_spills"] / ops
		into["mapred.shuffled_segments"] = float64(traced.segments) / ops
		into["mapred.shuffled_mb"] = float64(traced.bytes) / 1e6 / ops
		if c["combine_inputs"] > 0 {
			into["mapred.combine_out_per_in"] = c["combine_outputs"] / c["combine_inputs"]
		}
		into["transport.sent_frames"] = c["jbs_transport_sent_frames_total"] / ops
		into["transport.sent_mb"] = c["jbs_transport_sent_bytes_total"] / 1e6 / ops
	} else {
		var resolves float64
		into["core.fetch_batch_s"], _, into["core.fetch_self_s"] = per("core.fetch_batch")
		into["core.deliver_s"], _, _ = per("core.deliver")
		into["registry.resolve_s"], resolves, _ = per("registry.resolve")
		into["registry.resolve_calls"] = resolves
		if n := t["registry.resolve"].calls; n > 0 {
			into["registry.resolve_us_per_call"] = t["registry.resolve"].seconds / float64(n) * 1e6
		}
		into["transport.dials"] = float64(t["transport.dial"].calls)
		into["transport.dial_s"] = t["transport.dial"].seconds
		into["transport.send_s"], into["transport.send_frames"], _ = per("transport.send")
		into["transport.recv_s"], into["transport.recv_frames"], _ = per("transport.recv")
		into["transport.recv_mb"] = c["recv_bytes"] / 1e6 / ops
		if traced.segments > 0 {
			into["transport.recv_frames_per_fetch"] = float64(t["transport.recv"].calls) / float64(traced.segments)
		}
		into["core.merger_retries"] = c["merger_retries"] / ops
		// Batch latency is quoted from the untraced half, at the highest
		// percentile that half's sample supports.
		tail := tailPercentile(len(plain.opSeconds))
		into["core.fetch_batches"] = float64(len(plain.opSeconds))
		into["core.fetch_batch_p50_ms"] = median(plain.opSeconds) * 1e3
		into["core.fetch_batch_tail_ms"] = percentile(plain.opSeconds, tail) * 1e3
		into["core.fetch_batch_tail_pct"] = tail
	}

	// The terms of cpu_s_per_gb, from the untraced half. The benchmark
	// process hosts the NetMerger (and, on a job workload, everything).
	if plain.bytes > 0 {
		gb := float64(plain.bytes) / 1e9
		into["daemon.merger_cpu_s_per_gb"] = plain.cpuSeconds["bench"] / gb
		into["daemon.supplier_cpu_s_per_gb"] = plain.cpuSeconds["supplier"] / gb
		into["daemon.registry_cpu_s_per_gb"] = plain.cpuSeconds["registry"] / gb
	}
	if t[root].seconds > 0 {
		into["trace.unexplained_share"] = t[root].self / t[root].seconds
	}
	if base := median(plain.opSeconds); base > 0 {
		into["trace.overhead_share"] = (median(traced.opSeconds) - base) / base
	}
}
