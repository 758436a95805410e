package experiments

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/dataset"
	"repro/uncertain"
)

// This experiment is not in the paper: it measures the query hot path as a
// CPU problem. With zero simulated latency and a warm buffer pool there is
// no I/O to hide, so throughput is set by per-query CPU work — of which, on
// a cached tree, decode allocations were the dominant share. The sweep runs
// the Fig. 9 workload (LB dataset, qs = 1500, pq = 0.6) serially, fully
// warmed, with the decoded-node cache off and on, reporting q/s, allocs per
// query (runtime Mallocs delta over the measured pass) and the node-cache
// hit rate. Results are checked identical between the rows — the cache and
// the pooled scratch may only change where time and memory go, never what a
// query answers.

// CPUPathRow is one cache configuration of the CPU hot-path sweep.
type CPUPathRow struct {
	// NodeCache reports whether the decoded-node cache was enabled.
	NodeCache bool
	// QPS is serial warm-cache query throughput.
	QPS float64
	// Speedup is QPS relative to the cache-off baseline row.
	Speedup float64
	// AllocsPerQuery is the heap allocation count per query over the
	// measured pass (runtime.MemStats.Mallocs delta / queries).
	AllocsPerQuery float64
	// BytesPerQuery is the allocated bytes per query over the measured
	// pass (runtime.MemStats.TotalAlloc delta / queries).
	BytesPerQuery float64
	// HitRate is the decoded-node-cache hit fraction over the measured
	// pass (0 when the cache is off).
	HitRate float64
	// Stats is the merged query-cost total over the measured queries.
	Stats uncertain.Stats
}

// cpupathPasses is how many times the measurement loop runs the workload.
const cpupathPasses = 4

// CPUPath measures the warm-cache serial query path with the decoded-node
// cache off and on: same index contents, same Fig. 9 workload, zero
// latency. The cache-on row must return byte-for-byte the baseline row's
// results (exact refinement).
func CPUPath(cfg Config) ([]CPUPathRow, error) {
	cfg = cfg.withDefaults()
	out := cfg.Out
	fprintf(out, "CPU hot path: Fig. 9 workload (LB, qs=1500, pq=0.6), %d queries, zero latency, warm cache\n",
		cfg.Queries)

	objects, queries := mixedWorkload(cfg)

	var rows []CPUPathRow
	var baseline [][]uncertain.Result
	for _, cached := range []bool{false, true} {
		nodeCacheEntries := -1 // off
		if cached {
			nodeCacheEntries = 0 // default size
		}
		ct, err := uncertain.NewTree(uncertain.Config{
			Dimensions:       dataset.LB.Dim(),
			ExactRefinement:  true, // deterministic probabilities → exact equivalence
			Seed:             cfg.Seed,
			BufferPages:      mixedTotalBufferPages,
			NodeCacheEntries: nodeCacheEntries,
		})
		if err != nil {
			return nil, err
		}
		if err := ct.BulkLoad(objects); err != nil {
			ct.Close()
			return nil, err
		}
		if err := ct.Flush(); err != nil {
			ct.Close()
			return nil, err
		}
		row, results, err := runCPUPathRow(cached, ct, queries)
		closeErr := ct.Close()
		if err != nil {
			return nil, err
		}
		if closeErr != nil {
			return nil, closeErr
		}
		if !cached {
			baseline = results
			row.Speedup = 1
		} else {
			if err := compareToBaseline(baseline, results, 1); err != nil {
				return nil, fmt.Errorf("node cache changed results: %w", err)
			}
			row.Speedup = row.QPS / rows[0].QPS
		}
		rows = append(rows, row)
		label := "cache off"
		if cached {
			label = "cache on "
		}
		fprintf(out, "  %s %8.1f q/s  %5.2fx  %8.1f allocs/q  %9.0f B/q  hit rate %5.1f%%\n",
			label, row.QPS, row.Speedup, row.AllocsPerQuery, row.BytesPerQuery, 100*row.HitRate)
	}
	return rows, nil
}

// runCPUPathRow measures one configuration: a capture pass that doubles as
// the warm-up (pages and decoded nodes hot), then the timed pass bracketed
// by MemStats reads and the node-cache counters.
func runCPUPathRow(cached bool, ct *uncertain.Tree, queries []uncertain.RangeQuery) (CPUPathRow, [][]uncertain.Result, error) {
	row := CPUPathRow{NodeCache: cached}

	// Result capture doubles as the warm-up pass.
	results := make([][]uncertain.Result, len(queries))
	for i, q := range queries {
		res, _, err := ct.Search(context.Background(), q.Rect, q.Prob)
		if err != nil {
			return row, nil, err
		}
		results[i] = sortedByID(res)
	}

	ops := cpupathPasses * len(queries)
	h0, m0 := ct.NodeCacheStats()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for p := 0; p < cpupathPasses; p++ {
		for _, q := range queries {
			_, st, err := ct.Search(context.Background(), q.Rect, q.Prob)
			if err != nil {
				return row, nil, err
			}
			row.Stats.Add(st)
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	h1, m1 := ct.NodeCacheStats()

	row.QPS = float64(ops) / elapsed.Seconds()
	row.AllocsPerQuery = float64(ms1.Mallocs-ms0.Mallocs) / float64(ops)
	row.BytesPerQuery = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(ops)
	if lookups := (h1 - h0) + (m1 - m0); lookups > 0 {
		row.HitRate = float64(h1-h0) / float64(lookups)
	}
	return row, results, nil
}
