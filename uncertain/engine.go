package uncertain

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the batch query engine: a bounded worker pool fanning many
// independent queries across one shared Index — a Tree (each worker's
// query pins its own snapshot of the committed epoch, so batches
// interleave freely with live updates and never wait on a writer) or a
// ShardedTree (each worker's query searches the shards in turn). The design follows the scalable filter/refinement
// pipelines of Bernecker et al. (probabilistic similarity ranking): the
// per-query work is already filter-then-refine, so throughput comes from
// running many queries' pipelines concurrently against a decoded-node
// cache that tolerates parallel readers.

// RangeQuery is one probabilistic range query in a batch.
type RangeQuery struct {
	Rect Rect
	// Prob is the appearance-probability threshold in (0, 1].
	Prob float64
}

// NNQuery is one expected-distance k-NN query in a batch.
type NNQuery struct {
	Point Point
	K     int
}

// BatchStats aggregates the paper's per-query cost metrics over a batch.
type BatchStats struct {
	Queries int
	Workers int
	// WallTime is the end-to-end batch latency; QueriesPerSec = Queries /
	// WallTime.
	WallTime      time.Duration
	QueriesPerSec float64

	NodeAccesses     int     // total tree pages visited
	MeanNodeAccesses float64 // per query
	// ProbComputations counts appearance-probability evaluations for range
	// batches and expected-distance evaluations for NN batches — the
	// expensive refinement step either way.
	ProbComputations     int
	MeanProbComputations float64
	// Validated and ValidatedPct report how many results were proven from
	// their leaf entries alone, before any record was read (range batches
	// only; the PCR filter's win).
	Validated    int
	ValidatedPct float64
	Results      int
	// MarginalValidated and MarginalPruned count the refinement candidates
	// of a range batch that were decided on their pdf's marginals, without
	// a probability computation; ShapeDecided those among them decided
	// before their record was read (see Stats).
	MarginalValidated int
	MarginalPruned    int
	ShapeDecided      int

	// Decoded-node-cache deltas over the batch's wall-time window. The
	// cache's counters are tree-wide, so when batches overlap on one tree —
	// or writers run concurrently — these include the other parties'
	// traffic; they are exact only for a batch running alone.
	CacheHits    int64
	CacheMisses  int64
	CacheHitRate float64 // hits / (hits+misses); 0 when the window had no cache lookup

	// Per-query wall-time latency distribution (nearest-rank percentiles
	// over the batch). Latency is measured at the engine boundary — one
	// timed unit per query — so a sharded query over several shards counts
	// as one query latency, and percentiles merge consistently whatever Index
	// is underneath.
	P50Latency time.Duration
	P95Latency time.Duration
	MaxLatency time.Duration

	// Cancelled counts queries that returned a context error: ones that hit
	// the engine's per-query timeout (EngineOptions.QueryTimeout — counted
	// and skipped, the batch continues) and ones aborted by the batch
	// context going away.
	Cancelled int

	// Pruning totals over the batch: shards skipped by a sharded query
	// and leaf entries discarded by the probability upper bound where the
	// paper's Rules 1–2 could not (range batches only for the latter).
	ShardsPruned     int
	ProbFilterPruned int
}

// EngineOptions configures a QueryEngine.
type EngineOptions struct {
	// Workers bounds the query fan-out (0 → runtime.GOMAXPROCS(0)).
	Workers int
	// QueryTimeout, when > 0, bounds each query's wall time with its own
	// context deadline (derived from the batch context). A timed-out query
	// is counted in BatchStats.Cancelled and its result slot holds the
	// partial results its deadline allowed (possibly none); the rest of
	// the batch proceeds. Use the batch context's own deadline to bound
	// the whole batch instead.
	QueryTimeout time.Duration
}

// QueryEngine runs batches of queries concurrently against one shared
// index — every Index in this package tolerates concurrent readers. The
// engine holds no per-batch state, so one engine may serve many
// goroutines, and batches may overlap with Insert/Delete on the same
// index.
//
//	tree, _ := uncertain.NewTree(uncertain.Config{Dimensions: 2})
//	// ... load objects ...
//	eng := uncertain.NewQueryEngine(tree, uncertain.EngineOptions{Workers: 4})
//	results, stats, err := eng.SearchBatch(ctx, queries)
type QueryEngine struct {
	idx          Index
	workers      int
	queryTimeout time.Duration
}

// NewQueryEngine builds an engine over idx.
func NewQueryEngine(idx Index, opt EngineOptions) *QueryEngine {
	w := opt.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &QueryEngine{idx: idx, workers: w, queryTimeout: opt.QueryTimeout}
}

// Workers reports the configured fan-out bound.
func (e *QueryEngine) Workers() int { return e.workers }

// SearchBatch answers every query and returns per-query results (index i
// answers queries[i]) plus aggregated stats. Per-query options apply to
// every query of the batch. Per-query-timeout errors are non-fatal
// (counted in BatchStats, the batch continues, partial results are kept);
// the first other error — or the
// batch context going away — cancels the remaining in-flight queries
// promptly and is returned together with the results and stats of the
// work that did complete.
func (e *QueryEngine) SearchBatch(ctx context.Context, queries []RangeQuery, opts ...QueryOption) ([][]Result, BatchStats, error) {
	out := make([][]Result, len(queries))
	perQuery := make([]Stats, len(queries))
	stats, err := e.run(ctx, len(queries), func(qctx context.Context, i int) error {
		res, st, qerr := e.idx.Search(qctx, queries[i].Rect, queries[i].Prob, opts...)
		out[i], perQuery[i] = res, st
		if qerr != nil {
			return fmt.Errorf("uncertain: batch query %d: %w", i, qerr)
		}
		return nil
	})
	var agg Stats
	for i := range perQuery {
		agg.Add(perQuery[i])
	}
	stats.NodeAccesses = agg.NodeAccesses
	stats.ProbComputations = agg.ProbComputations
	stats.Validated = agg.Validated
	stats.Results = agg.Results
	stats.MarginalValidated = agg.MarginalValidated
	stats.MarginalPruned = agg.MarginalPruned
	stats.ShapeDecided = agg.ShapeDecided
	stats.ShardsPruned = agg.ShardsPruned
	stats.ProbFilterPruned = agg.ProbFilterPruned
	stats.finish()
	if err != nil {
		return out, stats, err
	}
	return out, stats, nil
}

// NNBatch answers every k-NN query (index i answers queries[i]) plus
// aggregated stats; ProbComputations counts expected-distance evaluations.
// Context, options and error semantics match SearchBatch.
func (e *QueryEngine) NNBatch(ctx context.Context, queries []NNQuery, opts ...QueryOption) ([][]Neighbor, BatchStats, error) {
	out := make([][]Neighbor, len(queries))
	perQuery := make([]NNStats, len(queries))
	stats, err := e.run(ctx, len(queries), func(qctx context.Context, i int) error {
		res, st, qerr := e.idx.NearestNeighbors(qctx, queries[i].Point, queries[i].K, opts...)
		out[i], perQuery[i] = res, st
		if qerr != nil {
			return fmt.Errorf("uncertain: batch query %d: %w", i, qerr)
		}
		return nil
	})
	var agg NNStats
	for i := range perQuery {
		agg.Add(perQuery[i])
	}
	stats.NodeAccesses = agg.NodeAccesses
	stats.ProbComputations = agg.DistanceComps
	stats.ShardsPruned = agg.ShardsPruned
	for i := range out {
		stats.Results += len(out[i])
	}
	stats.finish()
	if err != nil {
		return out, stats, err
	}
	return out, stats, nil
}

// run fans n tasks across the worker pool and times the batch — both
// end-to-end and per query, for the latency percentiles. Workers pull
// indices from a shared counter. The batch context is propagated into
// every query, so the first fatal error cancels the in-flight queries
// mid-traversal instead of letting them run to completion (the old engine
// only stopped *unstarted* tasks); per-query-timeout errors are counted
// and skipped.
func (e *QueryEngine) run(ctx context.Context, n int, task func(ctx context.Context, i int) error) (BatchStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	h0, m0 := e.idx.NodeCacheStats()
	start := time.Now()

	workers := e.workers
	if workers > n {
		workers = n
	}
	bctx, cancel := context.WithCancel(ctx)
	defer cancel()
	durations := make([]time.Duration, n)
	var (
		next      atomic.Int64
		failed    atomic.Bool
		errOnce   sync.Once
		firstErr  error
		cancelled atomic.Int64
		wg        sync.WaitGroup
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		failed.Store(true)
		cancel() // abort the sibling workers' in-flight queries
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				qctx := bctx
				qcancel := context.CancelFunc(func() {})
				if e.queryTimeout > 0 {
					qctx, qcancel = context.WithTimeout(bctx, e.queryTimeout)
				}
				qStart := time.Now()
				err := task(qctx, i)
				qcancel()
				durations[i] = time.Since(qStart)
				// Classify by the error's identity, not by context state: a
				// genuine failure that happens to return after a deadline
				// expired must still fail the batch, not be miscounted as a
				// timeout.
				switch {
				case err == nil:
				case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
					cancelled.Add(1)
					if ctx.Err() != nil {
						// The caller's context is gone: the whole batch stops.
						fail(ctx.Err())
						return
					}
					// Per-query deadline, or a sibling worker's fail()
					// cancelling bctx; count it and let the loop condition
					// decide whether to continue.
				default:
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	h1, m1 := e.idx.NodeCacheStats()
	stats := BatchStats{
		Queries:     n,
		Workers:     workers,
		WallTime:    time.Since(start),
		CacheHits:   h1 - h0,
		CacheMisses: m1 - m0,
		Cancelled:   int(cancelled.Load()),
	}
	// Percentiles cover only the queries that actually ran: on an aborted
	// batch the never-started tasks' zero durations would otherwise drag
	// P50/P95 to zero in the partial stats returned with the error.
	ran := durations[:0]
	for _, d := range durations {
		if d > 0 {
			ran = append(ran, d)
		}
	}
	sort.Slice(ran, func(a, b int) bool { return ran[a] < ran[b] })
	stats.P50Latency = percentile(ran, 50)
	stats.P95Latency = percentile(ran, 95)
	if len(ran) > 0 {
		stats.MaxLatency = ran[len(ran)-1]
	}
	return stats, firstErr
}

// percentile returns the nearest-rank p-th percentile of an ascending
// latency list.
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := (p*len(sorted) + 99) / 100
	if idx < 1 {
		idx = 1
	}
	if idx > len(sorted) {
		idx = len(sorted)
	}
	return sorted[idx-1]
}

// finish derives the per-query and rate metrics from the accumulated sums.
func (s *BatchStats) finish() {
	if s.Queries > 0 {
		s.MeanNodeAccesses = float64(s.NodeAccesses) / float64(s.Queries)
		s.MeanProbComputations = float64(s.ProbComputations) / float64(s.Queries)
	}
	if s.Results > 0 {
		s.ValidatedPct = 100 * float64(s.Validated) / float64(s.Results)
	}
	if lookups := s.CacheHits + s.CacheMisses; lookups > 0 {
		s.CacheHitRate = float64(s.CacheHits) / float64(lookups)
	}
	if s.WallTime > 0 {
		s.QueriesPerSec = float64(s.Queries) / s.WallTime.Seconds()
	}
}
