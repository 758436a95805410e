package main

import "repro/internal/pagefile"

// metricDef names a metric and its unit. BENCHMARK.json repeats both lists
// with direction and bound; the smoke test checks the two agree.
type metricDef struct{ name, unit string }

var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"io_per_query", "pages"},
	{"prob_comps_per_query", "count"},
	{"write_bytes_per_update", "B"},
	{"bytes_per_object", "B"},
	{"live_heap_mb", "MB"},
}

// timingDefs are the wall-clock metrics of the operations. They are
// per-layer metrics — the uncertain layer's root spans — because none of
// them repeats within 10 % on the sandbox (README "Why the timings are not
// gated"); an untraced run measures and prints them all the same.
var timingDefs = []metricDef{
	{"uncertain.query_per_s", "1/s"},
	{"uncertain.query_p50_ms", "ms"},
	{"uncertain.query_p95_ms", "ms"},
	{"uncertain.nn_per_s", "1/s"},
	{"uncertain.update_per_s", "1/s"},
	{"uncertain.batch_p50_ms", "ms"},
	{"uncertain.mixed_query_p50_ms", "ms"},
}

var perLayerDefs = append(append([]metricDef(nil), timingDefs...), []metricDef{
	{"pagefile.store_reads_per_query", "count"},
	{"pagefile.store_read_us", "us"},
	{"pagefile.store_read_share", "ratio"},
	{"pagefile.pool_hit_rate", "ratio"},
	{"pagefile.verify_us_per_page", "us"},
	{"pagefile.store_writes_per_update", "count"},
	{"pagefile.store_write_us", "us"},
	{"pagefile.allocs_per_update", "count"},
	{"pagefile.frees_per_update", "count"},
	{"core.node_accesses_per_query", "count"},
	{"core.leaf_accesses_per_query", "count"},
	{"core.refine_ios_per_query", "count"},
	{"core.nodecache_hit_rate", "ratio"},
	{"core.filter_ms_per_query", "ms"},
	{"core.refine_ms_per_query", "ms"},
	{"core.filter_share", "ratio"},
	{"core.refine_share", "ratio"},
	{"core.nn_distance_comps_per_query", "count"},
	{"core.nn_node_accesses_per_query", "count"},
	{"core.gc_reclaimed_pages_per_update", "count"},
	{"core.gc_pending_pages_end", "count"},
	{"pcr.candidates_per_query", "count"},
	{"pcr.validated_per_query", "count"},
	{"pcr.probfilter_pruned_per_query", "count"},
	{"pcr.refined_per_result", "ratio"},
	{"pcr.filter_ns_per_entry", "ns"},
	{"pcr.build_us_per_object", "us"},
	{"updf.mc_prob_us", "us"},
	{"updf.exact_prob_us", "us"},
	{"updf.decode_ns_per_record", "ns"},
	{"uncertain.shards_pruned_per_query", "count"},
	{"uncertain.fanout_overhead_us", "us"},
	{"uncertain.commit_share", "ratio"},
	{"uncertain.engine_batch_per_s", "1/s"},
	{"uncertain.query_p99_ms", "ms"},
	{"bench.gen_s", "s"},
	{"bench.warmup_s", "s"},
	{"bench.cpu_s", "s"},
	{"bench.trace_overhead_pct", "%"},
}...)

var unitOf = func() map[string]string {
	m := map[string]string{}
	for _, defs := range [][]metricDef{endToEndDefs, perLayerDefs} {
		for _, d := range defs {
			m[d.name] = d.unit
		}
	}
	return m
}()

// put records a metric under its declared unit; an undeclared name is a
// bug in this program.
func put(m map[string]metric, name string, v float64) {
	unit, ok := unitOf[name]
	if !ok {
		panic("e2ebench: undeclared metric " + name)
	}
	m[name] = metric{Value: v, Unit: unit}
}

// perSecond is a pass's rate: its operations over the time inside them.
func perSecond(ops float64, latMS []float64) float64 {
	return 1e3 * ops / sum(latMS)
}

// timings fills the wall-clock metrics. A read phase's rate is the median
// of its replays' rates, and its percentiles are taken over each
// operation's median latency across the replays (same operation, three
// timings), so one preempted replay cannot move them. Write passes are
// alike but not identical, so each statistic is taken per pass and the
// median pass reported.
func timings(m map[string]metric, rng, nn *readPhase, wr *writePhase) {
	rates := func(ph *readPhase) []float64 {
		var out []float64
		for _, lat := range ph.timed() {
			out = append(out, perSecond(float64(ph.n), lat))
		}
		return out
	}
	put(m, "uncertain.query_per_s", median(rates(rng)))
	lat := elementwiseMedian(rng.timed())
	put(m, "uncertain.query_p50_ms", percentile(lat, 50))
	put(m, "uncertain.query_p95_ms", percentile(lat, 95))
	put(m, "uncertain.nn_per_s", median(rates(nn)))

	var update, batch, mixed []float64
	for p := range wr.batchLat {
		update = append(update, perSecond(2*batchInserts*float64(len(wr.batchLat[p])), wr.batchLat[p]))
		batch = append(batch, median(wr.batchLat[p]))
		mixed = append(mixed, median(wr.mixedLat[p]))
	}
	put(m, "uncertain.update_per_s", median(update))
	put(m, "uncertain.batch_p50_ms", median(batch))
	put(m, "uncertain.mixed_query_p50_ms", median(mixed))
}

// endToEnd fills the end-to-end metrics from an untraced run.
func (b *bench) endToEnd(m map[string]metric, setupS, liveHeapMB, storeBytes float64, rng *readPhase, wr *writePhase) {
	put(m, "setup_s", setupS)
	queries := rng.replayedOps()
	put(m, "io_per_query", float64(rng.counts.reads)/queries)
	put(m, "prob_comps_per_query", float64(rng.stats.ProbComputations)/queries)
	put(m, "write_bytes_per_update", float64(wr.counts.writes)*pagefile.PageSize/float64(wr.mutations))
	put(m, "bytes_per_object", storeBytes/float64(b.idx.Len()))
	put(m, "live_heap_mb", liveHeapMB)
}

// perLayer fills the per-layer metrics from a traced run: counts from the
// Stats the calls returned and the getters' deltas, times from the spans,
// unit costs of the compute layers from the replays.
func (b *bench) perLayer(m map[string]metric, rng, nn *readPhase, wr *writePhase, engineQPS float64) {
	queries := rng.replayedOps()
	st := rng.stats
	rt := b.rec.phaseTimes(phaseRange)
	tracedQueries := float64(rt.ops)

	put(m, "pagefile.store_reads_per_query", float64(rng.counts.reads)/queries)
	put(m, "pagefile.store_read_us", ratio(float64(rt.store["Read"])/1e3, float64(rt.calls["Read"])))
	// A range query's only store calls are reads; the root spans' self time
	// is what is left once the union of those calls is taken out.
	put(m, "pagefile.store_read_share", ratio(float64(rt.root-rt.self), float64(rt.root)))
	put(m, "pagefile.pool_hit_rate", ratio(float64(rng.counts.poolHit), float64(rng.counts.poolHit+rng.counts.poolMiss)))

	wt := b.rec.phaseTimes(phaseWrite)
	muts := float64(wr.mutations)
	put(m, "pagefile.store_writes_per_update", float64(wr.counts.writes)/muts)
	put(m, "pagefile.store_write_us", ratio(float64(wt.store["Write"])/1e3, float64(wt.calls["Write"])))
	put(m, "pagefile.allocs_per_update", float64(wr.counts.allocs)/muts)
	put(m, "pagefile.frees_per_update", float64(wr.counts.frees)/muts)

	put(m, "core.node_accesses_per_query", float64(st.NodeAccesses)/queries)
	put(m, "core.leaf_accesses_per_query", float64(st.LeafAccesses)/queries)
	put(m, "core.refine_ios_per_query", float64(st.RefinementIOs)/queries)
	put(m, "core.nodecache_hit_rate", ratio(float64(rng.counts.nodeHit), float64(rng.counts.nodeHit+rng.counts.nodeMiss)))
	put(m, "core.filter_ms_per_query", rt.filter.Seconds()*1e3/tracedQueries)
	put(m, "core.refine_ms_per_query", rt.refine.Seconds()*1e3/tracedQueries)
	put(m, "core.filter_share", ratio(float64(rt.filter), float64(rt.root)))
	put(m, "core.refine_share", ratio(float64(rt.refine), float64(rt.root)))

	nnQueries := nn.replayedOps()
	put(m, "core.nn_distance_comps_per_query", float64(nn.nnStats.DistanceComps)/nnQueries)
	put(m, "core.nn_node_accesses_per_query", float64(nn.nnStats.NodeAccesses)/nnQueries)
	put(m, "core.gc_reclaimed_pages_per_update", float64(wr.reclaimed)/muts)
	put(m, "core.gc_pending_pages_end", float64(wr.pendingEnd))

	// Candidates remaining per stage (Bernecker et al.): entries surviving
	// the PCR/CFB rules split into validated and candidates; the
	// probability bound prunes some candidates; the rest are refined; a
	// part of those qualifies.
	put(m, "pcr.candidates_per_query", float64(st.Candidates)/queries)
	put(m, "pcr.validated_per_query", float64(st.Validated)/queries)
	put(m, "pcr.probfilter_pruned_per_query", float64(st.ProbFilterPruned)/queries)
	put(m, "pcr.refined_per_result", ratio(float64(st.ProbComputations), float64(st.Results)))

	rp := b.replay()
	put(m, "pagefile.verify_us_per_page", rp.verifyUS)
	put(m, "pcr.filter_ns_per_entry", rp.filterNS)
	put(m, "pcr.build_us_per_object", rp.buildUS)
	put(m, "updf.mc_prob_us", rp.mcProbUS)
	put(m, "updf.exact_prob_us", rp.exactProbUS)
	put(m, "updf.decode_ns_per_record", rp.decodeNS)

	put(m, "uncertain.shards_pruned_per_query", float64(st.ShardsPruned)/queries)
	put(m, "uncertain.fanout_overhead_us", ratio(float64(rt.fanout)/1e3, float64(rt.fanoutN)))
	// Share of the write phase's wall time spent inside WriteBatch, the
	// rest being the queries issued right after each commit.
	commit, mixed := sum(flatten(wr.batchLat)), sum(flatten(wr.mixedLat))
	put(m, "uncertain.commit_share", ratio(commit, commit+mixed))
	put(m, "uncertain.engine_batch_per_s", engineQPS)
	put(m, "uncertain.query_p99_ms", percentile(rt.rootDurs, 99))
	// By how much tracing lowered the range replays' rate: plain and traced
	// replays alternate, and each side's rate is the median of its replays'.
	var plain, traced []float64
	for r := range rng.lat {
		plain = append(plain, perSecond(float64(rng.n), rng.lat[r]))
		traced = append(traced, perSecond(float64(rng.n), rng.latTraced[r]))
	}
	put(m, "bench.trace_overhead_pct", 100*(1-median(traced)/median(plain)))
}
