package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/workload"
	"repro/uncertain"
)

// baseSeconds is the -seconds value the operation counts below are sized
// for (BENCHMARK.json run_seconds): at that value one workload's set-ups and
// passes add up to about that long on the 2-core sandbox. Other values scale
// every count linearly, so counts stay a pure function of the flags.
const baseSeconds = 25

// datasetSeed fixes the three stand-in datasets. The paper's LB, CA and
// Aircraft are fixed files, and so are its query workloads. Reseeding the
// synthetic generator moves its cluster layout and with it every metric by
// a factor of two (measured: 93–216 q/s on LB over six seeds); resampling
// the query centres moves prob_comps_per_query by 4–5 % between seeds
// (a query's cost has a coefficient of variation of 1.3, and no stratified
// or systematic sample of 240 tames that), which no useful regression
// bound survives. -seed therefore drives the order of the queries and the
// refinement sampler, never the dataset or the set of queries.
const datasetSeed = 42

// Write-batch shape (ISSUE table): 8 inserts + 8 deletes in one
// WriteBatch, then 4 range queries centred on the objects just inserted.
const (
	batchInserts = 8
	postQueries  = 4
	nnK          = 10
)

// A run sets the index up setups times (setup_s is the fastest; the last
// index is the one the phases use), warms the read phases up once, replays
// each read phase replays times and runs as many write passes.
const (
	setups  = 2
	replays = 3
	warmUp  = -1 // the pass number of the warm-up
)

// spec is one workload: a dataset, an index configuration and the
// operation counts of its phases at baseSeconds.
type spec struct {
	name string

	data  dataset.Name
	scale float64 // of the paper's dataset size

	shards int // 0 → NewConcurrentTree; >0 → NewSpatialShardedTree
	file   bool
	config uncertain.Config // Seed, Path and WrapStore are filled per run

	qs float64
	pq []float64

	// rangeN and nnN are the operations of one read pass, batches the
	// WriteBatch calls of one write pass.
	rangeN, nnN, batches int
	oracleN              int
}

// specs lists the four workloads in reporting order; BENCHMARK.json and the
// README say why each exists. Scale, qs, pq, n1 and cache sizes are the
// issue's; only the counts were tuned to the run-time cap (README "Sizing").
var specs = []spec{
	{
		name: "lb-refine-mem",
		data: dataset.LB, scale: 0.25,
		config: uncertain.Config{Dimensions: 2, MonteCarloSamples: 500},
		qs:     500, pq: []float64{0.3, 0.6, 0.9},
		rangeN: 240, nnN: 12, batches: 8, oracleN: 20,
	},
	{
		name: "ca-cold-file",
		data: dataset.CA, scale: 0.2, file: true,
		config: uncertain.Config{Dimensions: 2, MonteCarloSamples: 200, BufferPages: 32, NodeCacheEntries: 32},
		qs:     500, pq: []float64{0.3, 0.6, 0.9},
		rangeN: 400, nnN: 30, batches: 8, oracleN: 20,
	},
	{
		name: "air-shard-validate",
		data: dataset.Aircraft, scale: 0.1, shards: 2,
		config: uncertain.Config{Dimensions: 3, MonteCarloSamples: 100, AdaptivePlanning: true},
		qs:     2500, pq: []float64{0.6, 0.9},
		rangeN: 2200, nnN: 400, batches: 20, oracleN: 5,
	},
	{
		name: "lb-churn-file",
		data: dataset.LB, scale: 0.2, file: true,
		// n1 only feeds the NN expected-distance estimator here: range
		// refinement is exact. The default 10,000 makes one NN query 175 ms.
		config: uncertain.Config{Dimensions: 2, ExactRefinement: true, MonteCarloSamples: 200},
		qs:     250, pq: []float64{0.3, 0.6, 0.9},
		rangeN: 900, nnN: 52, batches: 20, oracleN: 20,
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// rangeOp is one prob-range query.
type rangeOp struct {
	rect geom.Rect
	pq   float64
}

type writeBatch struct {
	ins  []core.Object
	del  []int64
	post []rangeOp
}

// inputs is everything a run feeds the index, generated before any timing
// starts.
type inputs struct {
	loaded  []core.Object
	ranges  []rangeOp
	nn      []geom.Point
	batches []writeBatch // all write passes, in order
}

func scaleCount(n int, seconds float64) int {
	v := int(math.Round(float64(n) * seconds / baseSeconds))
	if v < 1 {
		v = 1
	}
	return v
}

func paperSize(n dataset.Name) int {
	switch n {
	case dataset.LB:
		return dataset.LBSize
	case dataset.CA:
		return dataset.CASize
	}
	return dataset.AircraftSize
}

// generate builds the run's inputs. The dataset generators draw their
// objects sequentially after fixing the cluster layout, so generating
// loaded+hold-out objects in one call and splitting keeps the loaded set
// identical whatever the hold-out count.
func generate(sp spec, o runOpts) inputs {
	nLoaded := int(float64(paperSize(sp.data)) * sp.scale * o.scaleMul)
	if nLoaded < 100 {
		nLoaded = 100
	}
	nBatches := replays * scaleCount(sp.batches, o.seconds)
	nHold := nBatches * batchInserts
	total := nLoaded + nHold
	objs := dataset.Generate(dataset.Config{
		Name:  sp.data,
		Scale: (float64(total) + 0.5) / float64(paperSize(sp.data)),
		Seed:  datasetSeed,
	})
	if len(objs) != total {
		panic(fmt.Sprintf("e2ebench: dataset generator returned %d objects, want %d", len(objs), total))
	}
	in := inputs{loaded: objs[:nLoaded]}
	hold := objs[nLoaded:]
	rng := rand.New(rand.NewSource(o.seed))

	// Thresholds cycle over the centres in curve order, before the shuffle.
	// The k-NN points are an evenly spaced subset of the centres.
	centers := spreadCenters(in.loaded, scaleCount(sp.rangeN, o.seconds))
	in.ranges = make([]rangeOp, len(centers))
	for i, c := range centers {
		in.ranges[i] = queryAt(c, sp.qs, sp.pq[i%len(sp.pq)])
	}
	nnN := scaleCount(sp.nnN, o.seconds)
	if nnN > len(in.ranges) {
		nnN = len(in.ranges)
	}
	for k := 0; k < nnN; k++ {
		in.nn = append(in.nn, in.ranges[k*len(in.ranges)/nnN].rect.Center())
	}
	rng.Shuffle(len(in.ranges), func(i, j int) { in.ranges[i], in.ranges[j] = in.ranges[j], in.ranges[i] })
	rng.Shuffle(len(in.nn), func(i, j int) { in.nn[i], in.nn[j] = in.nn[j], in.nn[i] })

	// A write phase cannot be replayed: every batch puts 8 fresh hold-out
	// objects in and takes the 8 oldest loaded objects out (object count
	// constant), so the passes are statistically alike, not identical. The
	// batches do not depend on the seed: an R-tree's insertion cost depends on
	// insertion order (which insert splits which node), and a seeded order
	// moved the update rate by a third between seeds while changing nothing a
	// user would call a different workload.
	if nLoaded < nHold {
		panic(fmt.Sprintf("e2ebench: %d deletes from %d loaded objects", nHold, nLoaded))
	}
	for p := 0; p < nBatches; p++ {
		wb := writeBatch{ins: hold[p*batchInserts : (p+1)*batchInserts]}
		for _, o := range in.loaded[p*batchInserts : (p+1)*batchInserts] {
			wb.del = append(wb.del, o.ID)
		}
		for j := 0; j < postQueries; j++ {
			wb.post = append(wb.post, queryAt(wb.ins[j].PDF.Center(), sp.qs, sp.pq[j%len(sp.pq)]))
		}
		in.batches = append(in.batches, wb)
	}
	return in
}

// queryAt builds the paper's query shape — a square/cube of side qs
// centred on a data point, shifted to stay inside the domain — through
// workload.New so the clamping rule is the experiments' own.
func queryAt(center geom.Point, qs, pq float64) rangeOp {
	w := workload.New(workload.Config{QS: qs, PQ: pq, Count: 1, Domain: dataset.Domain, Centers: []geom.Point{center}})
	return rangeOp{rect: w.Queries[0].Rect, pq: pq}
}

// spreadCenters picks n query centres from the objects' centres so that
// query locations follow the data distribution (paper §6): objects are
// ordered along a Z-order curve and cut into n equal-sized runs, and the
// middle member of each run is taken. Centres come back in curve order; the
// caller shuffles the finished queries, because consecutive queries must not
// be spatial neighbours or the caches see locality the workload does not
// have.
func spreadCenters(objs []core.Object, n int) []geom.Point {
	if n > len(objs) {
		n = len(objs)
	}
	type keyed struct {
		key uint64
		c   geom.Point
	}
	ks := make([]keyed, len(objs))
	for i, o := range objs {
		c := o.PDF.Center()
		ks[i] = keyed{key: morton(c), c: c}
	}
	sort.SliceStable(ks, func(a, b int) bool { return ks[a].key < ks[b].key })
	out := make([]geom.Point, n)
	for i := range out {
		lo, hi := i*len(ks)/n, (i+1)*len(ks)/n
		out[i] = ks[(lo+hi)/2].c
	}
	return out
}

// morton interleaves 10 bits per dimension of p's grid cell.
func morton(p geom.Point) uint64 {
	const bits = 10
	var key uint64
	for b := bits - 1; b >= 0; b-- {
		for _, x := range p {
			cell := uint64(x / dataset.Domain * (1 << bits))
			if cell >= 1<<bits {
				cell = 1<<bits - 1
			}
			key = key<<1 | (cell>>uint(b))&1
		}
	}
	return key
}
