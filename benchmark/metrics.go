package main

// perLayer builds the traced run's metrics: layer timings from the probes
// and the traced pass, counter ratios with their bases, the generator's
// own lateness, and the tracing overhead as traced minus untraced
// end-to-end metrics.
func perLayer(workload string, untraced, traced passResult, pr probeResult, layers map[string]LayerStat) map[string]metric {
	m := make(map[string]metric)
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	per := func(total float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return total / float64(n)
	}
	ratio := func(hits, lookups int64) float64 {
		if lookups == 0 {
			return 0
		}
		return float64(hits) / float64(lookups)
	}

	put("workload.materialize_ms", per(pr.matS, pr.matN)*1e3, "ms")
	put("workload.mrecs_per_s", pr.matRecs/pr.matS/1e6, "M/s")
	put("sim.new_us", per(pr.newS, pr.newN)*1e6, "us")
	put("sim.warmup_ms", per(pr.warmS, pr.warmN)*1e3, "ms")
	put("sim.warmup_mrefs_per_s", pr.warmRefs/pr.warmS/1e6, "M/s")
	put("sim.checkpoint_us", per(pr.cpS, pr.cpN)*1e6, "us")
	put("sim.restore_us", per(pr.restoreS, pr.restoreN)*1e6, "us")
	put("sim.measured_ms", per(pr.measS, pr.measN)*1e3, "ms")
	put("sim.measured_mrefs_per_s", pr.measRefs/pr.measS/1e6, "M/s")
	put("sim.minstr_per_s", pr.measInstr/pr.measS/1e6, "M/s")
	for _, name := range timingLayers {
		put(name+"_ns", pr.layerNs[name], "ns")
	}

	f := traced.fig
	put("experiments.sweep_s", f.sweepS, "s")
	put("sched.figC1_s", f.figC1S, "s")
	put("experiments.memo_hit_ratio", ratio(f.memoHits, f.memoLookups), "ratio")
	put("experiments.memo_lookups", float64(f.memoLookups), "count")
	put("experiments.checkpoint_hit_ratio", ratio(f.cpHits, f.cpLookups), "ratio")
	put("experiments.checkpoint_lookups", float64(f.cpLookups), "count")
	put("experiments.trace_hit_ratio", ratio(f.traceHits, f.traceLookups), "ratio")
	put("experiments.trace_lookups", float64(f.traceLookups), "count")

	s := traced.srv
	idle := quantile(s.idleHitMs, 0.5)
	put("server.idle_hit_ms", idle, "ms")
	put("dispatch.hit_queue_ms", quantile(s.hitMs, 0.5)-idle, "ms")
	q := s.metrics.Dispatch.Queue
	put("dispatch.fairness_preemptions", float64(q.FairnessPreemptions), "count")
	put("dispatch.jobs_submitted", float64(q.Submitted), "count")
	rm := s.metrics.ResultMemo
	put("server.memo_hit_ratio", ratio(rm.Hits, rm.Hits+rm.Misses+rm.Coalesced), "ratio")
	put("server.memo_lookups", float64(rm.Hits+rm.Misses+rm.Coalesced), "count")
	cp := s.metrics.Checkpoints
	put("server.checkpoint_hit_ratio", ratio(cp.Hits, cp.Hits+cp.Misses), "ratio")
	put("server.checkpoint_lookups", float64(cp.Hits+cp.Misses), "count")
	put("server.simulations", float64(s.metrics.Simulations), "count")
	var writes int64
	if st := s.metrics.ResultStore; st != nil {
		writes = st.Writes
	}
	put("store.writes", float64(writes), "count")
	put("store.writes_per_simulation", ratio(writes, s.metrics.Simulations), "ratio")
	put("api.decode_us", pr.apiDecodeUs, "us")
	put("api.encode_us", pr.apiEncodeUs, "us")
	put("store.save_us", pr.storeSaveUs, "us")
	put("store.load_us", pr.storeLoadUs, "us")
	put("gen.late_p99_ms", quantile(s.lateMs, 0.99), "ms")

	put("crypto.des_block_ns", pr.desNs, "ns")
	put("crypto.aes_block_ns", pr.aesNs, "ns")
	put("integrity.mac_us", pr.macUs, "us")
	rd, wr := layers["core.securemem_read"], layers["core.securemem_write"]
	put("core.securemem_read_us", per(rd.TotalMs, rd.Count)*1e3, "us")
	put("core.securemem_write_us", per(wr.TotalMs, wr.Count)*1e3, "us")

	spans := 0
	for _, l := range layers {
		spans += l.Count
	}
	put("trace.spans", float64(spans), "count")
	base, withSpans := endToEnd(workload, untraced), endToEnd(workload, traced)
	for name, v := range withSpans {
		put("trace.overhead."+name, v.Value-base[name].Value, v.Unit)
	}
	return m
}
