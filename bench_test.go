// Benchmark harness: one testing.B benchmark per table/figure of the
// U-tree paper's evaluation (Section 6), plus the ablations of
// `ubench -experiment ablations` (split strategy, forced reinsertion,
// catalog size, CFB vs PCR entries).
// Each benchmark regenerates its experiment at a reduced dataset scale and
// reports the paper's metrics as custom benchmark outputs
// (node-accesses/query, prob-computations/query, era-model seconds, …).
//
// Paper-scale runs: `go run ./cmd/ubench -experiment all -scale 1`.
package repro_test

import (
	"context"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/geom"
	"repro/internal/pagefile"
	"repro/internal/pcr"
	"repro/internal/workload"
	"repro/uncertain"
)

// benchConfig keeps `go test -bench=.` tractable while preserving shapes.
func benchConfig() experiments.Config {
	return experiments.Config{
		Scale:   0.01,
		Queries: 10,
		Seed:    42,
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

// BenchmarkAblationSplit compares the paper's median-value split with the
// naive p=0 split and the exhaustive summed split (experiments.AblationSplit).
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

// BenchmarkBuildEntryKeyed measures what an object with a shape reference
// pays for its leaf entry — every object of the paper's datasets: its region
// MBR, the entry's one computed field, and the faces a query reads off the
// entry, its shape's translated to the MBR (pcr.Shape.Translate; the shape
// is fitted once, outside the timer, as the tree fits it when the shape
// enters its table). One LB, one CA and one Aircraft object per iteration,
// as in BenchmarkBuildEntry, which measures the path of an object without
// one. CI gates its allocations.
func BenchmarkBuildEntryKeyed(b *testing.B) {
	var objs []core.Object
	var shapes []*pcr.Shape
	var faces pcr.Faces
	cat := pcr.UniformCatalog(15)
	for _, name := range dataset.All() {
		o := dataset.Generate(dataset.Config{Name: name, Scale: 0.001, Seed: 1})[0]
		sh := pcr.NewShape(o.PDF, cat)
		sh.Translate(&faces, o.PDF.MBR())
		objs, shapes = append(objs, o), append(shapes, sh)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, o := range objs {
			shapes[k].Translate(&faces, o.PDF.MBR())
			buildSink = len(faces)
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
		if _, err := tree.Insert(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeleteByID measures Tree.Delete(id) on an in-memory and a
// file-backed tree bulk-loaded with LB at scale 0.05: the directory lookup,
// the read of the object's record for its region, the descent, condensing
// and the commit. Objects go in a fixed shuffled order; once half of them
// are gone the tree is rebuilt with the timer stopped, so every delete
// meets a tree of the same size range.
func BenchmarkDeleteByID(b *testing.B) {
	objs := dataset.Generate(dataset.Config{Name: dataset.LB, Scale: 0.05, Seed: 1})
	batch := make(map[int64]uncertain.PDF, len(objs))
	for _, o := range objs {
		batch[o.ID] = o.PDF
	}
	order := rand.New(rand.NewSource(3)).Perm(len(objs))[:len(objs)/2]
	for _, store := range []string{"mem", "file"} {
		b.Run(store, func(b *testing.B) {
			var tree *uncertain.Tree
			build := func() {
				if tree != nil {
					tree.Close()
				}
				cfg := uncertain.Config{Dimensions: 2}
				if store == "file" {
					cfg.Path = filepath.Join(b.TempDir(), "delete.utree")
				}
				var err error
				if tree, err = uncertain.NewTree(cfg); err != nil {
					b.Fatal(err)
				}
				if err := tree.BulkLoad(batch); err != nil {
					b.Fatal(err)
				}
			}
			build()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % len(order)
				if k == 0 && i > 0 {
					b.StopTimer()
					build()
					b.StartTimer()
				}
				if err := tree.Delete(objs[order[k]].ID); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			tree.Close()
		})
	}
}

// BenchmarkWriteBatchAfterBulkLoad measures the first writes a bulk-loaded
// tree takes: LB at scale 0.05 on a memory Tree, one WriteBatch of 8
// inserts (LB objects of another seed) and 8 deletes per op, each on a
// freshly loaded tree rebuilt with the timer stopped. It reports the base
// store's page writes per mutation — leaf and inner relocations, splits
// and the append page — the count behind e2ebench's write_bytes_per_update.
func BenchmarkWriteBatchAfterBulkLoad(b *testing.B) {
	objs := dataset.Generate(dataset.Config{Name: dataset.LB, Scale: 0.05, Seed: 1})
	extra := dataset.Generate(dataset.Config{Name: dataset.LB, Scale: 0.05, Seed: 2})
	batch := make(map[int64]uncertain.PDF, len(objs))
	for _, o := range objs {
		batch[o.ID] = o.PDF
	}
	order := rand.New(rand.NewSource(3)).Perm(len(objs))
	var base pagefile.Store
	cfg := uncertain.Config{Dimensions: 2, WrapStore: func(s pagefile.Store) pagefile.Store {
		base = s
		return s
	}}
	var writes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tree, err := uncertain.NewTree(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := tree.BulkLoad(batch); err != nil {
			b.Fatal(err)
		}
		_, w0, _, _ := base.Stats().Snapshot()
		b.StartTimer()
		if err := tree.WriteBatch(func(w uncertain.BatchWriter) error {
			for k := 0; k < 8; k++ {
				j := (i*8 + k) % len(objs)
				if err := w.Insert(int64(len(objs)+j), extra[j%len(extra)].PDF); err != nil {
					return err
				}
				if err := w.Delete(objs[order[j]].ID); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		_, w1, _, _ := base.Stats().Snapshot()
		writes += w1 - w0
		tree.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(writes)/float64(16*b.N), "page-writes/mutation")
}

// BenchmarkQuery measures raw prob-range query latency against a built
// U-tree (LB, qs=1000, pq=0.6).
func BenchmarkQuery(b *testing.B) {
	cfg := benchConfig()
	cfg.Scale = 0.05
	objs := dataset.Generate(dataset.Config{Name: dataset.LB, Scale: cfg.Scale, Seed: 1})
	tree, err := core.New(core.Options{Dim: 2})
	if err != nil {
		b.Fatal(err)
	}
	for _, o := range objs {
		if _, err := tree.Insert(o); err != nil {
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

// Fig. 9 serving benchmarks: the LB dataset and the Fig. 9 mid-point
// workload (qs = 1500, pq = 0.6) through the public uncertain surface, on
// the in-memory store. The single-tree fixture is built once and shared;
// queries are read-only.
var fig9Fixture struct {
	once    sync.Once
	tree    *uncertain.Tree
	queries []uncertain.RangeQuery
	err     error
}

// fig9Data generates the fixture's objects and queries.
func fig9Data() ([]core.Object, []uncertain.RangeQuery) {
	const seed = 42
	objs := dataset.Generate(dataset.Config{Name: dataset.LB, Scale: 0.05, Seed: seed})
	centers := make([]geom.Point, len(objs))
	for i, o := range objs {
		centers[i] = o.PDF.Center()
	}
	w := workload.New(workload.Config{
		QS: 1500, PQ: 0.6, Count: 100, Seed: seed,
		Domain: dataset.Domain, Centers: centers,
	})
	queries := make([]uncertain.RangeQuery, len(w.Queries))
	for i, q := range w.Queries {
		queries[i] = uncertain.RangeQuery{Rect: q.Rect, Prob: q.Prob}
	}
	return objs, queries
}

// fig9Tree is the shared single-tree fixture: the objects inserted one by
// one into a tree whose page cache is smaller than the index, flushed, and
// one pass of the queries run so every benchmark starts warm.
func fig9Tree(b *testing.B) (*uncertain.Tree, []uncertain.RangeQuery) {
	fig9Fixture.once.Do(func() {
		objs, queries := fig9Data()
		tree, err := uncertain.NewTree(uncertain.Config{
			Dimensions:  dataset.LB.Dim(),
			BufferPages: 64,
		})
		if err == nil {
			for _, o := range objs {
				if err = tree.Insert(o.ID, o.PDF); err != nil {
					break
				}
			}
		}
		if err == nil {
			err = tree.Flush()
		}
		for _, q := range queries {
			if err != nil {
				break
			}
			_, _, err = tree.Search(context.Background(), q.Rect, q.Prob)
		}
		fig9Fixture.tree, fig9Fixture.queries, fig9Fixture.err = tree, queries, err
	})
	if fig9Fixture.err != nil {
		b.Fatal(fig9Fixture.err)
	}
	return fig9Fixture.tree, fig9Fixture.queries
}

// BenchmarkFig9SearchHotCache is the CPU-bound hot path: every page and
// decoded node warm, so queries/sec and allocs/op measure the
// decode/filter/refine CPU cost alone. This is the benchmark the CI
// allocation gate watches.
func BenchmarkFig9SearchHotCache(b *testing.B) {
	tree, queries := fig9Tree(b)
	// One more pass so every page and decoded node is warm.
	for _, q := range queries {
		if _, _, err := tree.Search(context.Background(), q.Rect, q.Prob); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		if _, _, err := tree.Search(context.Background(), q.Rect, q.Prob); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
}

// BenchmarkFig9SearchSerial is the baseline: one goroutine, one query at a
// time through Tree.Search.
func BenchmarkFig9SearchSerial(b *testing.B) {
	tree, queries := fig9Tree(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		if _, _, err := tree.Search(context.Background(), q.Rect, q.Prob); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
}

// BenchmarkFig9SearchBatch sweeps the engine's worker fan-out on the same
// workload; past GOMAXPROCS more workers cannot add throughput.
func BenchmarkFig9SearchBatch(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run("workers="+itoa(workers), func(b *testing.B) {
			tree, queries := fig9Tree(b)
			eng := uncertain.NewQueryEngine(tree, uncertain.EngineOptions{Workers: workers})
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

// BenchmarkFig9SearchSharded sweeps the shard count of a spatially sharded
// index on the same workload (serial query loop): every query prunes the
// shards whose root box misses it and searches the rest in turn. The
// per-shard page cache is 64 pages divided by the shard count (constant
// total cache budget).
func BenchmarkFig9SearchSharded(b *testing.B) {
	objs, queries := fig9Data()
	objects := make(map[int64]uncertain.PDF, len(objs))
	for _, o := range objs {
		objects[o.ID] = o.PDF
	}
	domain := uncertain.Box(uncertain.Pt(0, 0), uncertain.Pt(dataset.Domain, dataset.Domain))
	for _, shards := range []int{1, 2, 4} {
		b.Run("shards="+itoa(shards), func(b *testing.B) {
			idx, err := uncertain.NewSpatialShardedTree(shards, uncertain.Config{
				Dimensions:  dataset.LB.Dim(),
				BufferPages: 64 / shards,
			}, domain)
			if err != nil {
				b.Fatal(err)
			}
			defer idx.Close()
			if err := idx.BulkLoad(objects); err != nil {
				b.Fatal(err)
			}
			for _, q := range queries { // warm the page cache
				if _, _, err := idx.Search(context.Background(), q.Rect, q.Prob); err != nil {
					b.Fatal(err)
				}
			}
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
