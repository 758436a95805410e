package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/workload"
	"repro/uncertain"
)

// This experiment is not in the paper: it measures the batch query engine's
// throughput scaling — the Fig. 9 workload (LB dataset, qs = 1500, pq =
// 0.6) pushed through uncertain.QueryEngine at increasing worker counts,
// against the serial Search loop as baseline. The index runs over simulated
// disk latency (Config.IOLatency; the paper's era model charges 10 ms per
// page access), which is where fan-out pays off: workers overlap each
// other's page stalls, so throughput scales even when cores don't.

// ParallelRow is one worker-count sample of the throughput sweep.
type ParallelRow struct {
	// Workers is the fan-out; 0 marks the serial Search baseline row.
	Workers int
	// QPS is queries per second of wall time.
	QPS float64
	// Speedup is QPS relative to the serial baseline.
	Speedup float64
	// Stats carries the merged batch metrics of the measured pass,
	// including Cancelled (queries stopped by Config.QueryTimeout) and
	// BudgetExceeded (stopped by Config.QueryPageBudget).
	Stats uncertain.BatchStats
}

// queryOptions builds the per-query option set the Config asks for.
func queryOptions(cfg Config) []uncertain.QueryOption {
	var opts []uncertain.QueryOption
	if cfg.QueryLimit > 0 {
		opts = append(opts, uncertain.WithLimit(cfg.QueryLimit))
	}
	if cfg.QueryPageBudget > 0 {
		opts = append(opts, uncertain.WithPageBudget(cfg.QueryPageBudget))
	}
	if cfg.QueryMCSamples > 0 {
		opts = append(opts, uncertain.WithMonteCarloSamples(cfg.QueryMCSamples))
	}
	return opts
}

// ParallelBatch builds the Fig. 9 index once, then runs the same workload
// serially and through the batch engine at each worker count.
func ParallelBatch(cfg Config, workers []int) ([]ParallelRow, error) {
	cfg = cfg.withDefaults()
	if len(workers) == 0 {
		workers = []int{1, 2, 4, 8}
	}
	out := cfg.Out
	fprintf(out, "Parallel batch engine: Fig. 9 workload (LB, qs=1500, pq=0.6), %d queries, page latency %v\n",
		cfg.Queries, cfg.IOLatency)

	ct, lat, queries, err := BuildParallelFixture(cfg)
	if err != nil {
		return nil, err
	}
	defer ct.Close()
	lat.Arm(cfg.IOLatency)
	ctx := context.Background()
	opts := queryOptions(cfg)

	// Serial baseline: the plain Search loop every other experiment uses
	// (no per-query options — the baseline is the untuned query).
	warm := func() error { // one pass to fill the page cache fairly for all rows
		for _, q := range queries {
			if _, _, err := ct.Search(ctx, q.Rect, q.Prob); err != nil {
				return err
			}
		}
		return nil
	}
	if err := warm(); err != nil {
		return nil, err
	}
	start := time.Now()
	if err := warm(); err != nil {
		return nil, err
	}
	serialSec := time.Since(start).Seconds()
	baseQPS := float64(len(queries)) / serialSec
	rows := []ParallelRow{{Workers: 0, QPS: baseQPS, Speedup: 1}}
	fprintf(out, "  serial      %8.1f q/s\n", baseQPS)

	for _, w := range workers {
		eng := uncertain.NewQueryEngine(ct, uncertain.EngineOptions{
			Workers:      w,
			QueryTimeout: cfg.QueryTimeout,
		})
		if _, _, err := eng.SearchBatch(ctx, queries, opts...); err != nil { // warm pass
			return nil, err
		}
		_, stats, err := eng.SearchBatch(ctx, queries, opts...)
		if err != nil {
			return nil, err
		}
		row := ParallelRow{
			Workers: w,
			QPS:     stats.QueriesPerSec,
			Speedup: stats.QueriesPerSec / baseQPS,
			Stats:   stats,
		}
		rows = append(rows, row)
		fprintf(out, "  workers=%-3d %8.1f q/s  %5.2fx  (io/q=%.1f probs/q=%.1f val=%.0f%% cache=%.0f%%)\n",
			w, row.QPS, row.Speedup, stats.MeanNodeAccesses, stats.MeanProbComputations,
			stats.ValidatedPct, 100*stats.CacheHitRate)
		if stats.Cancelled > 0 || stats.BudgetExceeded > 0 {
			fprintf(out, "              %d cancelled (timeout %v), %d budget-exceeded (budget %d pages)\n",
				stats.Cancelled, cfg.QueryTimeout, stats.BudgetExceeded, cfg.QueryPageBudget)
		}
	}
	return rows, nil
}

// BuildParallelFixture loads the LB dataset into a Tree at zero storage
// latency and builds the Fig. 9 mid-point workload as engine queries; the
// caller arms the measurement latency on the returned hook.
func BuildParallelFixture(cfg Config) (*uncertain.Tree, *Latency, []uncertain.RangeQuery, error) {
	objs := dataset.Generate(dataset.Config{Name: dataset.LB, Scale: cfg.Scale, Seed: cfg.Seed})
	lat := &Latency{}
	ct, err := uncertain.NewTree(uncertain.Config{
		Dimensions:        dataset.LB.Dim(),
		MonteCarloSamples: cfg.MCSamples,
		Seed:              cfg.Seed,
		BufferPages:       64, // smaller than the index: some queries miss
		WrapStore:         lat.Wrap,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	for _, o := range objs {
		if err := ct.Insert(o.ID, o.PDF); err != nil {
			ct.Close()
			return nil, nil, nil, fmt.Errorf("loading %s: %w", dataset.LB, err)
		}
	}
	// Write back build-time dirty pages: measured batches must evict clean
	// frames only, or early queries serialize on victim write-backs.
	if err := ct.Flush(); err != nil {
		ct.Close()
		return nil, nil, nil, err
	}
	w := workload.New(workload.Config{
		QS: scaledQS(1500), PQ: 0.6, Count: cfg.Queries,
		Seed: cfg.Seed, Domain: dataset.Domain, Centers: centersOf(objs),
	})
	queries := make([]uncertain.RangeQuery, len(w.Queries))
	for i, q := range w.Queries {
		queries[i] = uncertain.RangeQuery{Rect: q.Rect, Prob: q.Prob}
	}
	return ct, lat, queries, nil
}
