// Benchmark harness: one testing.B benchmark per table/figure of the
// U-tree paper's evaluation (Section 6), plus the DESIGN.md ablations.
// Each benchmark regenerates its experiment at a reduced dataset scale and
// reports the paper's metrics as custom benchmark outputs
// (node-accesses/query, prob-computations/query, era-model seconds, …).
//
// Paper-scale runs: `go run ./cmd/ubench -experiment all -scale 1`.
package repro_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/geom"
	"repro/internal/pcr"
	"repro/internal/workload"
	"repro/uncertain"
)

// benchConfig keeps `go test -bench=.` tractable while preserving shapes.
func benchConfig() experiments.Config {
	return experiments.Config{
		Scale:     0.01,
		Queries:   10,
		MCSamples: 1000,
		Seed:      42,
	}
}

// BenchmarkFig7MonteCarlo regenerates Figure 7: monte-carlo error and
// per-computation cost versus sample count n1.
func BenchmarkFig7MonteCarlo(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig7(benchConfig(), []int{1000, 10000, 100000})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			last := rows[len(rows)-1]
			b.ReportMetric(100*last.Err2D, "%err-2D@n1max")
			b.ReportMetric(100*last.Err3D, "%err-3D@n1max")
			b.ReportMetric(float64(last.CostPerComp.Microseconds()), "µs/prob-comp")
		}
	}
}

// BenchmarkFig8CatalogSize regenerates Figure 8: U-PCR query cost versus
// catalog size m.
func BenchmarkFig8CatalogSize(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig8(benchConfig(), []int{3, 6, 9, 12}, []float64{0.3, 0.6, 0.9})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range points {
				if p.Dataset == dataset.LB {
					b.ReportMetric(p.Cost.TotalCostSec, "LB-cost@m"+itoa(p.M))
				}
			}
		}
	}
}

// BenchmarkTable1Size regenerates Table 1: index sizes of the U-tree versus
// U-PCR.
func BenchmarkTable1Size(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(float64(r.UPCRBytes)/float64(r.UTreeBytes), string(r.Dataset)+"-size-ratio")
			}
		}
	}
}

// BenchmarkFig9QuerySize regenerates Figure 9: cost versus query extent qs
// at pq = 0.6 (all datasets, both structures).
func BenchmarkFig9QuerySize(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig9(benchConfig(), []float64{500, 1500, 2500})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportSweep(b, points)
		}
	}
}

// BenchmarkFig10Threshold regenerates Figure 10: cost versus probability
// threshold pq at qs = 1500.
func BenchmarkFig10Threshold(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig10(benchConfig(), []float64{0.3, 0.6, 0.9})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportSweep(b, points)
		}
	}
}

// BenchmarkFig11Updates regenerates Figure 11: per-insertion and
// per-deletion overhead of the U-tree.
func BenchmarkFig11Updates(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig11(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.InsertIOCostSec+r.InsertCPUSec, string(r.Dataset)+"-ins-s/op")
				b.ReportMetric(r.DeleteIOCostSec+r.DeleteCPUSec, string(r.Dataset)+"-del-s/op")
			}
		}
	}
}

// BenchmarkAblationSplit compares split strategies (DESIGN.md §7).
func BenchmarkAblationSplit(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		points, err := experiments.AblationSplit(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range points {
				b.ReportMetric(p.Metrics.NodeAccesses, metricUnit(p.Label)+"-io/query")
			}
		}
	}
}

// BenchmarkAblationReinsert compares forced reinsertion on/off.
func BenchmarkAblationReinsert(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		points, err := experiments.AblationReinsert(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range points {
				b.ReportMetric(p.Metrics.NodeAccesses, metricUnit(p.Label)+"-io/query")
			}
		}
	}
}

// metricUnit strips characters testing.B forbids in metric units.
func metricUnit(label string) string {
	out := make([]rune, 0, len(label))
	for _, r := range label {
		switch r {
		case ' ', '(', ')':
			// skip
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// BenchmarkAblationCatalog sweeps the U-tree catalog size.
func BenchmarkAblationCatalog(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationCatalog(benchConfig(), []int{5, 15}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCFB compares CFB vs PCR entries at equal catalog size.
func BenchmarkAblationCFB(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationCFB(benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildEntry measures what every object pays before it enters the
// index — the PCRs at the 15 catalog values (quantile offsets cached per
// pdf shape, as in a load) and the cfb_out/cfb_in fit — on one LB, one CA
// and one Aircraft object per iteration. CI gates its allocations.
func BenchmarkBuildEntry(b *testing.B) {
	var objs []core.Object
	for _, name := range dataset.All() {
		objs = append(objs, dataset.Generate(dataset.Config{Name: name, Scale: 0.001, Seed: 1})[0])
	}
	cat := pcr.UniformCatalog(15)
	cache := pcr.NewQuantileCache()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, o := range objs {
			p := pcr.Compute(o.PDF, cat, cache)
			buildSink = pcr.FitOut(p).Dim() + pcr.FitIn(p).Dim()
		}
	}
}

var buildSink int

// BenchmarkInsert measures raw per-object insertion throughput of the
// U-tree (PCR computation + CFB fitting + tree descent).
func BenchmarkInsert(b *testing.B) {
	objs := dataset.Generate(dataset.Config{Name: dataset.LB, Scale: 0.5, Seed: 1})
	tree, err := core.New(core.Options{Dim: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := objs[i%len(objs)]
		o.ID = int64(i) // unique ids as the bench loops past the dataset
		if err := tree.Insert(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuery measures raw prob-range query latency against a built
// U-tree (LB, qs=1000, pq=0.6).
func BenchmarkQuery(b *testing.B) {
	cfg := benchConfig()
	cfg.Scale = 0.05
	objs := dataset.Generate(dataset.Config{Name: dataset.LB, Scale: cfg.Scale, Seed: 1})
	tree, err := core.New(core.Options{Dim: 2, MCSamples: 1000})
	if err != nil {
		b.Fatal(err)
	}
	for _, o := range objs {
		if err := tree.Insert(o); err != nil {
			b.Fatal(err)
		}
	}
	queries := benchQueries(objs, 1000, 0.6)
	if err := tree.Commit(); err != nil {
		b.Fatal(err)
	}
	snap := tree.Snapshot()
	defer snap.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := snap.RangeQuery(context.Background(), queries[i%len(queries)], core.QueryOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

// Parallel-vs-serial benchmarks: the Fig. 9 workload (LB, qs=1500, pq=0.6)
// over a 2 ms simulated page latency (see pagefile.LatencyStore — the era
// cost model's disk), serial Search loop versus QueryEngine.SearchBatch.
// The fixture is built once and shared; queries are read-only.
var parallelFixture struct {
	once    sync.Once
	ct      *uncertain.Tree
	lat     *experiments.Latency
	queries []uncertain.RangeQuery
	err     error
}

func parallelBenchFixture(b *testing.B) (*uncertain.Tree, []uncertain.RangeQuery) {
	parallelFixture.once.Do(func() {
		cfg := benchConfig()
		cfg.Scale = 0.05
		cfg.Queries = 100
		parallelFixture.ct, parallelFixture.lat, parallelFixture.queries, parallelFixture.err =
			experiments.BuildParallelFixture(cfg)
		if parallelFixture.err == nil {
			parallelFixture.lat.Arm(2 * time.Millisecond)
			// One warm pass so every benchmark starts from the same cache.
			for _, q := range parallelFixture.queries {
				if _, _, err := parallelFixture.ct.Search(context.Background(), q.Rect, q.Prob); err != nil {
					parallelFixture.err = err
					return
				}
			}
		}
	})
	if parallelFixture.err != nil {
		b.Fatal(parallelFixture.err)
	}
	return parallelFixture.ct, parallelFixture.queries
}

// BenchmarkFig9SearchHotCache is the CPU-bound hot path: the same Fig. 9
// workload with zero simulated latency and every page warm, so the
// traversal never waits on storage — queries/sec and allocs/op measure the
// decode/filter/refine CPU cost alone. This is the benchmark the CI
// allocation gate watches.
func BenchmarkFig9SearchHotCache(b *testing.B) {
	ct, queries := parallelBenchFixture(b)
	parallelFixture.lat.Arm(0)
	defer parallelFixture.lat.Arm(2 * time.Millisecond) // restore for later benchmarks
	// One zero-latency pass so every page and decoded node is warm.
	for _, q := range queries {
		if _, _, err := ct.Search(context.Background(), q.Rect, q.Prob); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		if _, _, err := ct.Search(context.Background(), q.Rect, q.Prob); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
}

// BenchmarkFig9SearchSerial is the baseline: one goroutine, one query at a
// time through ConcurrentTree.Search.
func BenchmarkFig9SearchSerial(b *testing.B) {
	ct, queries := parallelBenchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		if _, _, err := ct.Search(context.Background(), q.Rect, q.Prob); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
}

// BenchmarkFig9SearchBatch sweeps the engine's worker fan-out on the same
// workload; the acceptance bar is ≥ 2× serial queries/sec at 4 workers.
func BenchmarkFig9SearchBatch(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run("workers="+itoa(workers), func(b *testing.B) {
			ct, queries := parallelBenchFixture(b)
			eng := uncertain.NewQueryEngine(ct, uncertain.EngineOptions{Workers: workers})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := eng.SearchBatch(context.Background(), queries); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*len(queries))/b.Elapsed().Seconds(), "queries/sec")
		})
	}
}

// BenchmarkFig9SearchPrefetch sweeps the intra-query prefetch fan-out on
// the same Fig. 9 workload (serial query loop, 2 ms simulated page
// latency): one query overlaps up to N of its own page fetches — a
// level's surviving children concurrently, refinement data pages behind
// the integration — so queries/sec grows with the fan-out even though the
// loop is strictly serial and the container has one core. prefetch=0 is
// the serial baseline; the acceptance bar is ≥ 2× its queries/sec.
func BenchmarkFig9SearchPrefetch(b *testing.B) {
	for _, prefetch := range []int{0, 2, 4, 8} {
		b.Run("prefetch="+itoa(prefetch), func(b *testing.B) {
			ct, queries := parallelBenchFixture(b)
			// The per-query option replaces the removed SetPrefetchWorkers
			// mutator: the shared fixture needs no restore step.
			opt := uncertain.WithPrefetchWorkers(prefetch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				if _, _, err := ct.Search(context.Background(), q.Rect, q.Prob, opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
		})
	}
}

// BenchmarkFig9SearchSharded sweeps the shard count on the same Fig. 9
// workload (serial query loop, 2 ms simulated page latency): every query
// scatter-gathers across the shards, overlapping its page stalls, so
// queries/sec grows with shards even on one core. The per-shard buffer
// pool is the single tree's divided by the shard count (constant total
// cache budget); shards=1 is a plain Tree. The mixed read/write
// version (with a live writer stream) runs via
// `go run ./cmd/ubench -experiment sharded`.
func BenchmarkFig9SearchSharded(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run("shards="+itoa(shards), func(b *testing.B) {
			cfg := benchConfig()
			cfg.Scale = 0.05
			cfg.Queries = 100
			idx, lat, queries, err := experiments.BuildShardedFixture(cfg, shards)
			if err != nil {
				b.Fatal(err)
			}
			defer idx.Close()
			for _, q := range queries { // warm the page cache
				if _, _, err := idx.Search(context.Background(), q.Rect, q.Prob); err != nil {
					b.Fatal(err)
				}
			}
			lat.Arm(2 * time.Millisecond)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				if _, _, err := idx.Search(context.Background(), q.Rect, q.Prob); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
		})
	}
}

// benchQueries builds a simple query mix whose centers follow the data.
func benchQueries(objs []core.Object, qs, pq float64) []core.Query {
	centers := make([]geom.Point, len(objs))
	for i, o := range objs {
		centers[i] = o.PDF.Center()
	}
	w := workload.New(workload.Config{
		QS: qs, PQ: pq, Count: 50, Seed: 3,
		Domain: dataset.Domain, Centers: centers,
	})
	return w.Queries
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var digits []byte
	for v > 0 {
		digits = append([]byte{byte('0' + v%10)}, digits...)
		v /= 10
	}
	return string(digits)
}

func reportSweep(b *testing.B, points []experiments.SweepPoint) {
	var ut, up float64
	for _, p := range points {
		if p.Kind == core.UTree {
			ut += p.Metrics.NodeAccesses
		} else {
			up += p.Metrics.NodeAccesses
		}
	}
	b.ReportMetric(ut, "utree-io-total")
	b.ReportMetric(up, "upcr-io-total")
}
