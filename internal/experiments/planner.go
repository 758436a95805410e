package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/dataset"
	"repro/internal/workload"
	"repro/uncertain"
)

// This experiment is not in the paper: it measures the cost-model-driven
// adaptive planner on a spatially-sharded index under a skewed Fig. 9-style
// workload (LB dataset, query centers confined to a hotspot slab of the
// domain). The baseline fans every query out to all K shards; the planner
// prunes shards whose committed root box cannot intersect the query rect.
// Results must stay byte-identical — the planner only skips work that
// provably cannot contribute. (The probability-bound filter runs on both
// sides: it is part of every leaf filter, not a planner decision.)
//
// Costs are reported two ways. EraCostSec applies the paper's serial-disk
// model (10 ms/page, 1.3 ms/probability) to the measured access counts —
// on 2005 hardware every root page of a pruned shard is a seek that never
// happens, which is where the headline speedup comes from. QPS is modern
// in-memory wall clock, where the saving is the pruned shards' CPU.
//
// The run closes with two planner-feedback checks: prediction accuracy
// (the calibrated cost model's predicted I/O vs measured accesses) and
// admission control (a tiny in-flight I/O ceiling must shed some of a
// concurrent batch, and an idle engine must still admit).

// PlannerRow is one mode of the adaptive-planning comparison.
type PlannerRow struct {
	// Mode is "fanout" (full scatter-gather baseline) or "planner"
	// (shard pruning + adaptive prefetch).
	Mode string
	// QPS is serial wall-clock query throughput (CPU-bound, warm cache).
	QPS float64
	// Speedup is QPS relative to the fanout baseline.
	Speedup float64
	// EraCostSec is the era cost model's per-query cost.
	EraCostSec float64
	// EraSpeedup is the baseline's EraCostSec over this mode's.
	EraSpeedup float64
	// NodeAccesses is the average tree pages visited per query.
	NodeAccesses float64
	// ShardsPruned totals the planner's shard-pruning decisions over the
	// measured queries (zero for the baseline); ProbFilterPruned the leaf
	// entries the probability upper bound dropped (the same in both modes).
	ShardsPruned     int
	ProbFilterPruned int
	// Identical reports whether this mode's results matched the baseline
	// byte-for-byte on every query (trivially true for the baseline).
	Identical bool
	// PredictedIO / MeasuredIO are the planner's lifetime sums of
	// predicted and measured node accesses; CalibrationFactor is the
	// fitted correction. Zero for the baseline.
	PredictedIO       float64
	MeasuredIO        float64
	CalibrationFactor float64
	// AdmissionRejected is how many queries the overload phase shed
	// (planner row only; the baseline has no prediction to admit on).
	AdmissionRejected int
}

// plannerShards is the spatial shard count: enough that a hotspot query
// overlaps one or two slabs and the rest of the fan-out is pure waste.
const plannerShards = 8

// plannerPasses is how many times the measurement loop runs the workload
// (the first full pass doubles as calibration warm-up).
const plannerPasses = 3

// PlannerAdaptive builds the LB dataset into two spatially-sharded indexes
// — full fan-out and adaptive — runs the skewed workload against both,
// verifies byte-identity, and measures the pruning, calibration and
// admission behaviour.
func PlannerAdaptive(cfg Config) ([]PlannerRow, error) {
	cfg = cfg.withDefaults()
	out := cfg.Out
	objects, queries := plannerWorkload(cfg)
	fprintf(out, "Adaptive planning on %d spatial shards: skewed Fig. 9 workload (LB, hotspot slab), %d queries × %d passes\n",
		plannerShards, len(queries), plannerPasses)

	domain := uncertain.Box(uncertain.Pt(0, 0), uncertain.Pt(dataset.Domain, dataset.Domain))
	build := func(adaptive bool) (*uncertain.ShardedTree, error) {
		st, err := uncertain.NewSpatialShardedTree(plannerShards, uncertain.Config{
			Dimensions:       dataset.LB.Dim(),
			ExactRefinement:  true, // deterministic probabilities → exact equivalence
			Seed:             cfg.Seed,
			BufferPages:      mixedBufferPagesPerShard(plannerShards),
			AdaptivePlanning: adaptive,
		}, domain)
		if err != nil {
			return nil, err
		}
		if err := st.BulkLoad(objects); err != nil {
			st.Close()
			return nil, err
		}
		return st, nil
	}

	baselineIdx, err := build(false)
	if err != nil {
		return nil, err
	}
	defer baselineIdx.Close()
	plannerIdx, err := build(true)
	if err != nil {
		return nil, err
	}
	defer plannerIdx.Close()

	var rows []PlannerRow
	var baseline [][]uncertain.Result
	for _, mode := range []struct {
		name string
		idx  *uncertain.ShardedTree
	}{{"fanout", baselineIdx}, {"planner", plannerIdx}} {
		row := PlannerRow{Mode: mode.name, Identical: true}

		// Warm-up pass: fills caches, captures results for the identity
		// check, and (planner mode) feeds the calibration window.
		results := make([][]uncertain.Result, len(queries))
		for i, q := range queries {
			res, _, err := mode.idx.Search(context.Background(), q.Rect, q.Prob)
			if err != nil {
				return nil, err
			}
			results[i] = res // sharded results arrive sorted by ID
		}
		if mode.name == "fanout" {
			baseline = results
		} else if err := compareToBaseline(baseline, results, len(rows)); err != nil {
			row.Identical = false
			return rows, fmt.Errorf("planner results diverged from full fan-out: %w", err)
		}

		var agg uncertain.Stats
		start := time.Now()
		for p := 0; p < plannerPasses; p++ {
			for _, q := range queries {
				_, st, err := mode.idx.Search(context.Background(), q.Rect, q.Prob)
				if err != nil {
					return nil, err
				}
				agg.Add(st)
			}
		}
		elapsed := time.Since(start)

		n := float64(plannerPasses * len(queries))
		row.QPS = n / elapsed.Seconds()
		row.NodeAccesses = float64(agg.NodeAccesses) / n
		row.ShardsPruned = agg.ShardsPruned
		row.ProbFilterPruned = agg.ProbFilterPruned
		row.EraCostSec = (float64(agg.NodeAccesses+agg.RefinementIOs)*IOCostSec +
			float64(agg.ProbComputations)*ProbCostSec) / n
		if len(rows) > 0 {
			row.Speedup = row.QPS / rows[0].QPS
			row.EraSpeedup = rows[0].EraCostSec / row.EraCostSec
		} else {
			row.Speedup, row.EraSpeedup = 1, 1
		}
		if mode.name == "planner" {
			info := mode.idx.PlannerInfo()
			row.PredictedIO = info.PredictedAccesses
			row.MeasuredIO = info.MeasuredAccesses
			row.CalibrationFactor = info.CalibrationFactor
			rej, err := plannerAdmissionPhase(mode.idx, queries)
			if err != nil {
				return nil, err
			}
			row.AdmissionRejected = rej
		}
		rows = append(rows, row)

		fprintf(out, "  %-8s %8.1f q/s  %5.2fx   era %7.4f s/q  %5.2fx   io/q=%5.1f  shards-pruned=%d  prob-pruned=%d\n",
			row.Mode, row.QPS, row.Speedup, row.EraCostSec, row.EraSpeedup,
			row.NodeAccesses, row.ShardsPruned, row.ProbFilterPruned)
		if mode.name == "planner" {
			ratio := 0.0
			if row.MeasuredIO > 0 {
				ratio = row.PredictedIO / row.MeasuredIO
			}
			fprintf(out, "           predicted/measured io %.0f/%.0f (ratio %.2f, calib %.3f)  admission shed %d/%d\n",
				row.PredictedIO, row.MeasuredIO, ratio, row.CalibrationFactor,
				row.AdmissionRejected, len(queries))
		}
	}
	return rows, nil
}

// plannerWorkload generates the LB objects and the skewed query mix: the
// Fig. 9 parameters (qs = 1500, pq = 0.6) with every query center drawn
// from objects inside the hotspot slab (the first spatial shard's strip
// plus its neighbor), interleaved with narrow high-threshold probes of the
// same hotspot objects — the class the probability-bound filter prunes.
func plannerWorkload(cfg Config) (map[int64]uncertain.PDF, []uncertain.RangeQuery) {
	objs := dataset.Generate(dataset.Config{Name: dataset.LB, Scale: cfg.Scale, Seed: cfg.Seed})
	objects := make(map[int64]uncertain.PDF, len(objs))
	for _, o := range objs {
		objects[o.ID] = o.PDF
	}

	// Hotspot: objects whose center falls in the leftmost quarter of the
	// domain — queries landing there overlap at most 2-3 of the 8 slabs.
	hotspot := objs[:0:0]
	for _, o := range objs {
		if o.PDF.Center()[0] < dataset.Domain/4 {
			hotspot = append(hotspot, o)
		}
	}
	if len(hotspot) == 0 {
		hotspot = objs // degenerate scale: fall back to the full set
	}
	w := workload.New(workload.Config{
		QS: scaledQS(1500), PQ: 0.6, Count: cfg.Queries,
		Seed: cfg.Seed, Domain: dataset.Domain, Centers: centersOf(hotspot),
	})
	queries := make([]uncertain.RangeQuery, 0, 2*len(w.Queries))
	rng := rand.New(rand.NewSource(cfg.Seed + 101))
	for _, q := range w.Queries {
		queries = append(queries, uncertain.RangeQuery{Rect: q.Rect, Prob: q.Prob})
		// Narrow probe over a hotspot object's core: a rect far smaller
		// than the pdf support with a threshold above the mass it can
		// capture — prunable only by the probability-bound filter.
		c := hotspot[rng.Intn(len(hotspot))].PDF.Center()
		h := 10 + rng.Float64()*40
		queries = append(queries, uncertain.RangeQuery{
			Rect: uncertain.Box(uncertain.Pt(c[0]-h, c[1]-h), uncertain.Pt(c[0]+h, c[1]+h)),
			Prob: 0.3 + rng.Float64()*0.5,
		})
	}
	return objects, queries
}

// plannerAdmissionPhase runs the workload through the batch engine twice:
// once with a tiny in-flight I/O ceiling (must shed part of the concurrent
// batch without failing it) and once as single queries (an idle engine
// must admit whatever the prediction says).
func plannerAdmissionPhase(idx *uncertain.ShardedTree, queries []uncertain.RangeQuery) (int, error) {
	// Ceiling sized to roughly two average queries: with four workers the
	// batch genuinely overloads it, but a healthy fraction still runs.
	ceiling := 1.0
	if p, ok := idx.PredictSearchIO(queries[0].Rect, queries[0].Prob); ok && p > 0 {
		ceiling = 2 * p
	}
	eng := uncertain.NewQueryEngine(idx, uncertain.EngineOptions{
		Workers:       4,
		MaxInFlightIO: ceiling,
	})
	// Shedding needs two queries in flight at once, and a batch of
	// sub-millisecond queries can be drained by one worker before the
	// scheduler of a busy machine starts the next: give it a few batches.
	var stats uncertain.BatchStats
	for attempt := 0; attempt < 5 && stats.AdmissionRejected == 0; attempt++ {
		var err error
		if _, stats, err = eng.SearchBatch(context.Background(), queries); err != nil {
			return 0, err
		}
	}
	if stats.AdmissionRejected == 0 {
		return 0, errors.New("planner admission: tiny ceiling shed nothing from a concurrent batch")
	}
	if stats.AdmissionRejected >= len(queries) {
		return 0, fmt.Errorf("planner admission: every query shed (%d) — idle-admit rule broken",
			stats.AdmissionRejected)
	}
	rejected := stats.AdmissionRejected
	// Idle engine: one query at a time always runs, whatever its cost.
	_, st1, err := eng.SearchBatch(context.Background(), queries[:1])
	if err != nil {
		return 0, err
	}
	if st1.AdmissionRejected != 0 {
		return 0, errors.New("planner admission: idle engine shed its only query")
	}
	return rejected, nil
}
