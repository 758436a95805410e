package uncertain

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// This file is the batch query engine: a bounded worker pool running many
// independent range queries against one shared Index. Each query is the
// serial Search — on a Tree it pins its own snapshot of the committed
// epoch, so a batch interleaves freely with live updates — and the engine
// adds only the fan-out.

// RangeQuery is one probabilistic range query in a batch: the objects in
// Rect with appearance probability ≥ Prob, Prob in (0, 1].
type RangeQuery = core.Query

// BatchStats reports a batch: its size, fan-out and wall time, and the sum
// of its queries' Stats (Stats.Add) — so NodeAccesses, ProbComputations,
// Validated, Results and the other counts are batch totals.
type BatchStats struct {
	Queries int
	// Workers is the fan-out the batch ran with: EngineOptions.Workers,
	// capped at Queries.
	Workers  int
	WallTime time.Duration
	Stats
}

// EngineOptions configures a QueryEngine.
type EngineOptions struct {
	// Workers bounds the query fan-out (0 → runtime.GOMAXPROCS(0)).
	Workers int
}

// QueryEngine runs batches of range queries concurrently against one
// shared index — every Index in this package tolerates concurrent readers.
// The engine holds no per-batch state, so one engine may serve many
// goroutines, and batches may overlap with Insert/Delete on the same
// index.
//
//	tree, _ := uncertain.NewTree(uncertain.Config{Dimensions: 2})
//	// ... load objects ...
//	eng := uncertain.NewQueryEngine(tree, uncertain.EngineOptions{Workers: 4})
//	results, stats, err := eng.SearchBatch(ctx, queries)
type QueryEngine struct {
	idx     Index
	workers int
}

// NewQueryEngine builds an engine over idx.
func NewQueryEngine(idx Index, opt EngineOptions) *QueryEngine {
	w := opt.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &QueryEngine{idx: idx, workers: w}
}

// SearchBatch answers every query — out[i] answers queries[i], exactly as
// a serial Search would — plus the batch's stats. Options apply to every
// query of the batch. The first error, or ctx ending, cancels the queries
// in flight and starts no more; SearchBatch waits for them and returns the
// results and stats of the work that did complete (a query never started
// leaves its slot nil) together with that error.
func (e *QueryEngine) SearchBatch(ctx context.Context, queries []RangeQuery, opts ...QueryOption) ([][]Result, BatchStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	n := len(queries)
	out := make([][]Result, n)
	perQuery := make([]Stats, n)
	bctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	workers := min(e.workers, n)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for bctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				q := queries[i]
				res, st, err := e.idx.Search(bctx, q.Rect, q.Prob, opts...)
				out[i], perQuery[i] = res, st
				if err != nil {
					errOnce.Do(func() {
						if firstErr = ctx.Err(); firstErr == nil {
							firstErr = fmt.Errorf("uncertain: batch query %d: %w", i, err)
						}
					})
					cancel() // abort the sibling workers' in-flight queries
					return
				}
			}
		}()
	}
	wg.Wait()

	stats := BatchStats{Queries: n, Workers: workers, WallTime: time.Since(start)}
	for i := range perQuery {
		stats.Add(perQuery[i])
	}
	if firstErr == nil && int(next.Load()) < n {
		// ctx ended between two queries: no query failed, but some never
		// started.
		firstErr = ctx.Err()
	}
	return out, stats, firstErr
}
