package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/uncertain"
)

// This experiment is not in the paper: it measures intra-query I/O
// pipelining — the third parallelism layer after the batch engine (PR 1,
// across queries) and shards (PR 2, across partitions). The Fig. 9
// workload (LB dataset, qs = 1500, pq = 0.6) is queried *serially* against
// one Tree over simulated page latency, sweeping the prefetch
// fan-out: at 0 every page read is a sequential stall (the paper's serial
// cost model); at w a single query may overlap up to w of the independent
// fetches its own traversal already knows it needs (a level's surviving
// children, the refinement data pages). Each configuration is measured
// both alone and under a steady insert/delete writer stream, and every
// pipelined run must return byte-for-byte the serial configuration's
// results — the prefetcher changes wall-clock only, never answers.

// PipelineRow is one prefetch-worker sample of the sweep.
type PipelineRow struct {
	// Workers is the intra-query prefetch fan-out; 0 is the serial
	// baseline.
	Workers int
	// QPS is serial-loop query throughput with no concurrent writer.
	QPS float64
	// Speedup is QPS relative to the Workers = 0 baseline.
	Speedup float64
	// WriterQPS and WriterSpeedup repeat the measurement with a live
	// insert/delete stream contending for the tree's writer lock.
	WriterQPS     float64
	WriterSpeedup float64
	// WriteOps is how many writer operations completed during the writer
	// window.
	WriteOps int64
	// Stats is the merged query-cost total over the no-writer measured
	// passes, including the prefetch counters.
	Stats uncertain.Stats
}

// PipelineSweep builds the LB dataset into a Tree (the same
// fixture shape as the sharded experiment's single-tree baseline: 64
// buffer pages, exact refinement) and measures serial query throughput at
// each prefetch fan-out, alone and under the writer stream. The index is
// rebuilt per row so every configuration faces an identical tree.
func PipelineSweep(cfg Config, workers []int) ([]PipelineRow, error) {
	cfg = cfg.withDefaults()
	if len(workers) == 0 {
		workers = []int{2, 4, 8}
	}
	if workers[0] != 0 {
		workers = append([]int{0}, workers...)
	}
	out := cfg.Out
	fprintf(out, "Intra-query I/O pipelining: Fig. 9 workload (LB, qs=1500, pq=0.6), %d queries serial, page latency %v, %d buffer pages\n",
		cfg.Queries, cfg.IOLatency, mixedTotalBufferPages)

	objects, queries := mixedWorkload(cfg)

	var rows []PipelineRow
	var baseline [][]uncertain.Result // captured at Workers = 0
	for _, w := range workers {
		// The index is rebuilt per row anyway, so the fan-out is an
		// open-time knob (Config.PrefetchWorkers) — the removed
		// SetPrefetchWorkers mutator is not missed.
		idx, lat, err := buildMixedIndex(1, w, cfg, objects)
		if err != nil {
			return nil, err
		}
		row, results, err := runPipelineRow(w, cfg, idx, lat, queries)
		closeErr := idx.Close()
		if err != nil {
			return nil, err
		}
		if closeErr != nil {
			return nil, closeErr
		}
		if w == 0 {
			baseline = results
		} else if err := compareToBaseline(baseline, results, w); err != nil {
			return nil, fmt.Errorf("pipelined results diverge at prefetch=%d: %w", w, err)
		}
		if len(rows) > 0 {
			row.Speedup = row.QPS / rows[0].QPS
			row.WriterSpeedup = row.WriterQPS / rows[0].WriterQPS
		} else {
			row.Speedup = 1
			row.WriterSpeedup = 1
		}
		rows = append(rows, row)
		label := fmt.Sprintf("prefetch=%d", w)
		if w == 0 {
			label = "serial    "
		}
		measured := mixedPasses * len(queries)
		fprintf(out, "  %s %8.1f q/s %5.2fx | writer %8.1f q/s %5.2fx (ops %d) | io/q=%.1f prefetch issued=%d wasted=%d\n",
			label, row.QPS, row.Speedup, row.WriterQPS, row.WriterSpeedup, row.WriteOps,
			float64(row.Stats.NodeAccesses)/float64(measured),
			row.Stats.PrefetchIssued, row.Stats.PrefetchWasted)
	}
	return rows, nil
}

// runPipelineRow measures one fan-out: capture results at zero latency
// (equivalence check + cache warm-up), then measure the serial query loop
// alone, then again under the writer stream, and verify invariants after
// the mixed phase.
func runPipelineRow(w int, cfg Config, idx uncertain.Index, lat *Latency, queries []uncertain.RangeQuery) (PipelineRow, [][]uncertain.Result, error) {
	row := PipelineRow{Workers: w}

	results := make([][]uncertain.Result, len(queries))
	for i, q := range queries {
		res, _, err := idx.Search(context.Background(), q.Rect, q.Prob)
		if err != nil {
			return row, nil, err
		}
		results[i] = sortedByID(res)
	}

	lat.Arm(cfg.IOLatency)
	start := time.Now()
	for p := 0; p < mixedPasses; p++ {
		for _, q := range queries {
			_, st, err := idx.Search(context.Background(), q.Rect, q.Prob)
			if err != nil {
				return row, nil, err
			}
			row.Stats.Add(st)
		}
	}
	row.QPS = float64(mixedPasses*len(queries)) / time.Since(start).Seconds()

	writer := startWriterStream(idx, int64(2_000_000*(w+1)))
	start = time.Now()
	for p := 0; p < mixedPasses; p++ {
		for _, q := range queries {
			if _, _, err := idx.Search(context.Background(), q.Rect, q.Prob); err != nil {
				writer.stopAndWait()
				return row, nil, err
			}
		}
	}
	elapsed := time.Since(start)
	row.WriteOps = writer.stopAndWait()
	if writer.err != nil {
		return row, nil, writer.err
	}
	row.WriterQPS = float64(mixedPasses*len(queries)) / elapsed.Seconds()

	lat.Arm(0)
	if err := idx.CheckInvariants(); err != nil {
		return row, nil, fmt.Errorf("invariants after writer stream at prefetch=%d: %w", w, err)
	}
	return row, results, nil
}
