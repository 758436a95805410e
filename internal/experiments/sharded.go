package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/dataset"
	"repro/internal/workload"
	"repro/uncertain"
)

// This experiment is not in the paper: it measures the sharded index under
// a mixed read/write load — the Fig. 9 workload (LB dataset, qs = 1500,
// pq = 0.6) queried serially while a steady writer stream inserts and
// deletes objects, over simulated page latency. A single Tree
// pays the writer twice: every query's page stalls are serial, and the
// writer's exclusive lock (page stalls included) blocks every reader. The
// ShardedTree pays neither: one query overlaps its stalls across K shards,
// and a write locks only the shard owning the object. The per-shard buffer
// pool is the single tree's pool divided by K, so the comparison holds the
// total page-cache budget constant.
//
// On a single-core host the speedup comes entirely from overlapping the
// simulated I/O latency — which is the point: this models the paper's
// disk-resident setting (10 ms per page access), not CPU parallelism.

// ShardedRow is one shard-count sample of the mixed read/write sweep.
type ShardedRow struct {
	// Shards is the shard count; 1 is the single-Tree baseline.
	Shards int
	// QPS is serial query throughput while the writer stream runs.
	QPS float64
	// Speedup is QPS relative to the Shards = 1 baseline.
	Speedup float64
	// WriteOps is how many writer operations (inserts + deletes) completed
	// during the measurement window.
	WriteOps int64
	// Stats is the merged query-cost total over the measured queries.
	Stats uncertain.Stats
}

// mixedTotalBufferPages is the page-cache budget split across shards.
const mixedTotalBufferPages = 64

// mixedWriterPause is the writer stream's think time between operations —
// a steady ingest, not a saturating writer hammering the lock.
const mixedWriterPause = 2 * time.Millisecond

// mixedPasses is how many times the measurement loop runs the workload.
const mixedPasses = 2

// ShardedMixed builds the LB dataset into a single Tree and into
// ShardedTrees at each shard count, verifies the sharded indexes return
// byte-for-byte the baseline's results (sorted by ID; exact refinement),
// then measures serial query throughput under the writer stream at each
// shard count.
func ShardedMixed(cfg Config, shardCounts []int) ([]ShardedRow, error) {
	cfg = cfg.withDefaults()
	if len(shardCounts) == 0 {
		shardCounts = []int{1, 2, 4}
	}
	if shardCounts[0] != 1 {
		shardCounts = append([]int{1}, shardCounts...)
	}
	out := cfg.Out
	fprintf(out, "Sharded scatter-gather under mixed read/write: Fig. 9 workload (LB, qs=1500, pq=0.6), %d queries, page latency %v\n",
		cfg.Queries, cfg.IOLatency)

	objects, queries := mixedWorkload(cfg)

	var rows []ShardedRow
	var baseline [][]uncertain.Result // sorted by ID, captured at Shards = 1
	for _, k := range shardCounts {
		idx, lat, err := buildMixedIndex(k, 0, cfg, objects)
		if err != nil {
			return nil, err
		}
		row, results, err := runMixedRow(k, cfg, idx, lat, queries)
		closeErr := idx.Close()
		if err != nil {
			return nil, err
		}
		if closeErr != nil {
			return nil, closeErr
		}
		if k == 1 {
			baseline = results
		} else if err := compareToBaseline(baseline, results, k); err != nil {
			return nil, err
		}
		if len(rows) > 0 {
			row.Speedup = row.QPS / rows[0].QPS
		} else {
			row.Speedup = 1
		}
		rows = append(rows, row)
		label := fmt.Sprintf("shards=%d", k)
		if k == 1 {
			label = "single  "
		}
		measured := mixedPasses * len(queries)
		if per := mixedBufferPagesPerShard(k); per*k != mixedTotalBufferPages {
			fprintf(out, "  note: %d shards × %d-page floor = %d cached pages, above the %d-page budget\n",
				k, per, per*k, mixedTotalBufferPages)
		}
		fprintf(out, "  %s %8.1f q/s  %5.2fx  (writer ops %d, io/q=%.1f, validated %d/%d)\n",
			label, row.QPS, row.Speedup, row.WriteOps,
			float64(row.Stats.NodeAccesses)/float64(measured),
			row.Stats.Validated, row.Stats.Results)
	}
	return rows, nil
}

// mixedWorkload generates the LB objects and the Fig. 9 query workload
// shared by the sweep rows.
func mixedWorkload(cfg Config) (map[int64]uncertain.PDF, []uncertain.RangeQuery) {
	objs := dataset.Generate(dataset.Config{Name: dataset.LB, Scale: cfg.Scale, Seed: cfg.Seed})
	objects := make(map[int64]uncertain.PDF, len(objs))
	for _, o := range objs {
		objects[o.ID] = o.PDF
	}
	w := workload.New(workload.Config{
		QS: scaledQS(1500), PQ: 0.6, Count: cfg.Queries,
		Seed: cfg.Seed, Domain: dataset.Domain, Centers: centersOf(objs),
	})
	queries := make([]uncertain.RangeQuery, len(w.Queries))
	for i, q := range w.Queries {
		queries[i] = uncertain.RangeQuery{Rect: q.Rect, Prob: q.Prob}
	}
	return objects, queries
}

// BuildShardedFixture loads the LB dataset into a ShardedTree (a single
// Tree at shards = 1) with the sweep's divided page-cache budget, and
// returns the Fig. 9 workload queries — the root benchmarks' counterpart of
// BuildParallelFixture. The index is built at zero latency; the caller arms
// the measurement latency on the returned hook.
func BuildShardedFixture(cfg Config, shards int) (uncertain.Index, *Latency, []uncertain.RangeQuery, error) {
	cfg = cfg.withDefaults()
	objects, queries := mixedWorkload(cfg)
	idx, lat, err := buildMixedIndex(shards, 0, cfg, objects)
	if err != nil {
		return nil, nil, nil, err
	}
	return idx, lat, queries, nil
}

// buildMixedIndex constructs the index under test: a Tree at k = 1, a
// ShardedTree otherwise, bulk-loaded with the dataset at zero latency
// (arm the returned hook to measure); prefetch arms the index-wide
// intra-query fan-out (per shard when k > 1). The page-cache budget is
// divided across shards so every configuration caches the same total
// number of pages.
func buildMixedIndex(k, prefetch int, cfg Config, objects map[int64]uncertain.PDF) (uncertain.Index, *Latency, error) {
	lat := &Latency{}
	ucfg := uncertain.Config{
		WrapStore:       lat.Wrap,
		Dimensions:      dataset.LB.Dim(),
		ExactRefinement: true, // deterministic probabilities → exact equivalence
		Seed:            cfg.Seed,
		BufferPages:     mixedBufferPagesPerShard(k),
		PrefetchWorkers: prefetch,
	}
	var idx uncertain.Index
	var err error
	if k == 1 {
		idx, err = uncertain.NewTree(ucfg)
	} else {
		idx, err = uncertain.NewShardedTree(k, ucfg)
	}
	if err != nil {
		return nil, nil, err
	}
	if err := idx.BulkLoad(objects); err != nil {
		idx.Close()
		return nil, nil, err
	}
	// Write back build-time dirty pages so measured evictions are clean.
	if err := idx.Flush(); err != nil {
		idx.Close()
		return nil, nil, err
	}
	return idx, lat, nil
}

// mixedBufferPagesPerShard divides the cache budget across shards, with a
// floor of 8 pages so tiny shards stay functional; past 8 shards the floor
// exceeds the budget and ShardedMixed prints a disclosure note.
func mixedBufferPagesPerShard(k int) int {
	per := mixedTotalBufferPages / k
	if per < 8 {
		per = 8
	}
	return per
}

// runMixedRow measures one configuration: capture the query results at
// zero latency (for the equivalence check), then arm the latency, start
// the writer stream, run the queries serially, stop the writer, and check
// invariants after the mixed sequence.
func runMixedRow(k int, cfg Config, idx uncertain.Index, lat *Latency, queries []uncertain.RangeQuery) (ShardedRow, [][]uncertain.Result, error) {
	row := ShardedRow{Shards: k}

	// Result capture doubles as the cache warm-up pass.
	results := make([][]uncertain.Result, len(queries))
	for i, q := range queries {
		res, _, err := idx.Search(context.Background(), q.Rect, q.Prob)
		if err != nil {
			return row, nil, err
		}
		results[i] = sortedByID(res)
	}

	lat.Arm(cfg.IOLatency)
	writer := startWriterStream(idx, int64(1_000_000*(k+1)))

	start := time.Now()
	for p := 0; p < mixedPasses; p++ {
		for _, q := range queries {
			_, st, err := idx.Search(context.Background(), q.Rect, q.Prob)
			if err != nil {
				writer.stopAndWait()
				return row, nil, err
			}
			row.Stats.Add(st)
		}
	}
	elapsed := time.Since(start)

	row.WriteOps = writer.stopAndWait()
	if writer.err != nil {
		return row, nil, writer.err
	}
	row.QPS = float64(mixedPasses*len(queries)) / elapsed.Seconds()

	// The index must be structurally sound after interleaving scatter
	// queries with the writer stream (latency disarmed: the check walks
	// every page).
	lat.Arm(0)
	if err := idx.CheckInvariants(); err != nil {
		return row, nil, fmt.Errorf("invariants after mixed load at %d shards: %w", k, err)
	}
	return row, results, nil
}

// compareToBaseline demands exact equality — IDs, probabilities, validated
// flags — between a configuration's results and the baseline
// configuration's (value is the configuration knob, for the error text:
// shard count, prefetch fan-out).
func compareToBaseline(baseline, got [][]uncertain.Result, value int) error {
	for i := range baseline {
		if len(baseline[i]) != len(got[i]) {
			return fmt.Errorf("query %d at setting %d: %d results, baseline %d",
				i, value, len(got[i]), len(baseline[i]))
		}
		for j := range baseline[i] {
			if baseline[i][j] != got[i][j] {
				return fmt.Errorf("query %d result %d at setting %d: %+v, baseline %+v",
					i, j, value, got[i][j], baseline[i][j])
			}
		}
	}
	return nil
}

func sortedByID(res []uncertain.Result) []uncertain.Result {
	out := make([]uncertain.Result, len(res))
	copy(out, res)
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// writerStream is a steady background mutation load: insert a fresh
// object, delete every fourth, pause, repeat.
type writerStream struct {
	stop chan struct{}
	done chan struct{}
	ops  int64
	err  error
}

func startWriterStream(idx uncertain.Index, baseID int64) *writerStream {
	ws := &writerStream{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(ws.done)
		rng := rand.New(rand.NewSource(baseID))
		for id := baseID; ; id++ {
			select {
			case <-ws.stop:
				return
			default:
			}
			center := uncertain.Pt(
				250+rng.Float64()*(dataset.Domain-500),
				250+rng.Float64()*(dataset.Domain-500))
			if err := idx.Insert(id, uncertain.UniformCircle(center, 250)); err != nil {
				ws.err = err
				return
			}
			ws.ops++
			if id%4 == 0 {
				if err := idx.Delete(id); err != nil {
					ws.err = err
					return
				}
				ws.ops++
			}
			time.Sleep(mixedWriterPause)
		}
	}()
	return ws
}

// stopAndWait signals the writer to finish and returns its completed ops.
func (ws *writerStream) stopAndWait() int64 {
	close(ws.stop)
	<-ws.done
	return ws.ops
}
