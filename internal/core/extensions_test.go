package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/updf"
)

// --- Nearest neighbors -----------------------------------------------------

// bruteNN is the oracle: expected distances for every object, sorted.
func bruteNN(objs []Object, q geom.Point, k, samples int) []NNResult {
	all := make([]NNResult, len(objs))
	for i, o := range objs {
		all[i] = NNResult{ID: o.ID, ExpectedDist: ExpectedDistance(o.PDF, q, samples, o.ID)}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].ExpectedDist < all[b].ExpectedDist })
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func TestNearestNeighborsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	objs := makeObjects(500, 1000, rng)
	tree, err := New(Options{Dim: 2, MCSamples: 2000})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range objs {
		if err := tree.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 12; trial++ {
		q := geom.Point{rng.Float64() * 1000, rng.Float64() * 1000}
		k := 1 + rng.Intn(8)
		got, stats, err := nearestNeighbors(tree, q, k)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteNN(objs, q, k, tree.samples)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d results, want %d", trial, len(got), len(want))
		}
		for i := range got {
			// IDs may swap between near-equal distances; distances must
			// agree position-wise (deterministic estimator).
			if math.Abs(got[i].ExpectedDist-want[i].ExpectedDist) > 1e-9 {
				t.Fatalf("trial %d rank %d: dist %g vs %g",
					trial, i, got[i].ExpectedDist, want[i].ExpectedDist)
			}
		}
		// Ascending order.
		for i := 1; i < len(got); i++ {
			if got[i].ExpectedDist < got[i-1].ExpectedDist {
				t.Fatalf("results not sorted: %+v", got)
			}
		}
		// Best-first search must evaluate far fewer objects than brute force.
		if stats.DistanceComps >= len(objs) {
			t.Fatalf("trial %d: %d distance computations for %d objects",
				trial, stats.DistanceComps, len(objs))
		}
	}
}

func TestNearestNeighborsKLargerThanData(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	objs := makeObjects(10, 200, rng)
	tree := buildTree(t, UTree, objs, 0)
	got, _, err := nearestNeighbors(tree, geom.Point{100, 100}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("got %d results, want all 10", len(got))
	}
}

func TestNearestNeighborsValidation(t *testing.T) {
	tree, _ := New(Options{Dim: 2})
	if _, _, err := nearestNeighbors(tree, geom.Point{1}, 1); err == nil {
		t.Error("wrong-dim query accepted")
	}
	if _, _, err := nearestNeighbors(tree, geom.Point{1, 2}, 0); err == nil {
		t.Error("k=0 accepted")
	}
	// Empty tree: no results, no error.
	got, _, err := nearestNeighbors(tree, geom.Point{1, 2}, 3)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty tree NN: %v, %d results", err, len(got))
	}
}

func TestExpectedDistanceDeterministic(t *testing.T) {
	p := updf.NewUniformBall(geom.Point{50, 50}, 10)
	q := geom.Point{80, 50}
	a := ExpectedDistance(p, q, 5000, 7)
	b := ExpectedDistance(p, q, 5000, 7)
	if a != b {
		t.Fatal("same seed produced different estimates")
	}
	// Ball at distance 30 with radius 10: E[dist] ∈ (20, 40), near 30.
	if a < 25 || a > 35 {
		t.Fatalf("E[dist] = %g, expected ≈ 30", a)
	}
}

func TestMinDist(t *testing.T) {
	r := geom.NewRect(geom.Point{0, 0}, geom.Point{10, 10})
	if got := minDist(geom.Point{5, 5}, r); got != 0 {
		t.Fatalf("inside point minDist = %g", got)
	}
	if got := minDist(geom.Point{13, 14}, r); math.Abs(got-5) > 1e-12 {
		t.Fatalf("corner minDist = %g, want 5", got)
	}
	if got := minDist(geom.Point{-3, 5}, r); got != 3 {
		t.Fatalf("edge minDist = %g, want 3", got)
	}
}

// --- Bulk loading -----------------------------------------------------------

func TestBulkLoadMatchesIncremental(t *testing.T) {
	if testing.Short() {
		t.Skip("long-running; skipped with -short")
	}
	rng := rand.New(rand.NewSource(23))
	objs := makeObjects(1200, 1500, rng)

	inc := buildTree(t, UTree, objs, 0)
	bulk, err := New(Options{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := bulk.BulkLoad(objs); err != nil {
		t.Fatal(err)
	}
	if bulk.Len() != len(objs) {
		t.Fatalf("bulk Len = %d", bulk.Len())
	}
	if err := bulk.CheckInvariants(); err != nil {
		t.Fatalf("bulk invariants: %v", err)
	}

	// Query equivalence.
	for q := 0; q < 60; q++ {
		query := Query{Rect: randomQueryRect(rng, 1500), Prob: 0.05 + rng.Float64()*0.9}
		a, _, err := rangeQuery(inc, query)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := rangeQuery(bulk, query)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(resultIDs(a), resultIDs(b)) {
			t.Fatalf("query %d: bulk and incremental disagree", q)
		}
	}

	// Packing: bulk tree should not use more index pages.
	incPages, _ := inc.IndexPages()
	bulkPages, _ := bulk.IndexPages()
	if bulkPages > incPages {
		t.Fatalf("bulk pages %d > incremental %d", bulkPages, incPages)
	}
}

func TestBulkLoadStaysDynamic(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	objs := makeObjects(600, 800, rng)
	tree, err := New(Options{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.BulkLoad(objs[:500]); err != nil {
		t.Fatal(err)
	}
	for _, o := range objs[500:] {
		if err := tree.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	for _, o := range objs[:100] {
		if err := tree.Delete(o.ID); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	scan := NewScan(objs[100:], 9)
	for q := 0; q < 30; q++ {
		query := Query{Rect: randomQueryRect(rng, 800), Prob: 0.05 + rng.Float64()*0.9}
		got, _, err := rangeQuery(tree, query)
		if err != nil {
			t.Fatal(err)
		}
		want := scan.BruteForce(query)
		if !sameIDs(resultIDs(got), resultIDs(want)) {
			t.Fatalf("query %d after mixed bulk/dynamic ops", q)
		}
	}
}

func TestBulkLoadErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	objs := makeObjects(10, 100, rng)
	tree, _ := New(Options{Dim: 2})
	if err := tree.Insert(objs[0]); err != nil {
		t.Fatal(err)
	}
	if err := tree.BulkLoad(objs); err == nil {
		t.Error("bulk load on non-empty tree accepted")
	}
	empty, _ := New(Options{Dim: 2})
	if err := empty.BulkLoad(nil); err != nil {
		t.Errorf("empty bulk load: %v", err)
	}
	if empty.Len() != 0 {
		t.Error("empty bulk load changed size")
	}
}

func TestBulkLoadSmallAndExactCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, n := range []int{1, 5, 23, 24, 100} {
		objs := makeObjects(n, 300, rng)
		tree, _ := New(Options{Dim: 2})
		if err := tree.BulkLoad(objs); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tree.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, tree.Len())
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// --- NN distance bound --------------------------------------------------------

// TestNNMaxDist: QueryOpts.MaxDist only cuts what cannot reach the top k.
// Bounded by the unbounded answer's j-th distance, a query returns every
// neighbour at most that far — the same objects, in the same order — reads
// no more nodes, and abandons frontier entries once the bound is below the
// k-th distance. MaxDist 0 is no bound.
func TestNNMaxDist(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	objs := makeObjects(600, 1000, rng)
	tree := buildTree(t, UTree, objs, 0)
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	snap := tree.Snapshot()
	defer snap.Close()
	const k = 10
	pruned := 0
	for trial := 0; trial < 8; trial++ {
		q := geom.Point{rng.Float64() * 1000, rng.Float64() * 1000}
		full, fullStats, err := snap.NearestNeighbors(context.Background(), q, k, QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if got, st, _ := snap.NearestNeighbors(context.Background(), q, k, QueryOpts{MaxDist: 0}); !reflect.DeepEqual(got, full) ||
			st.NodeAccesses != fullStats.NodeAccesses || st.DistanceComps != fullStats.DistanceComps || st.BoundPruned != 0 {
			t.Fatalf("trial %d: MaxDist 0 changed the traversal: %+v vs %+v", trial, st, fullStats)
		}
		for _, j := range []int{0, k / 2, k - 1} {
			bound := full[j].ExpectedDist
			got, st, err := snap.NearestNeighbors(context.Background(), q, k, QueryOpts{MaxDist: bound})
			if err != nil {
				t.Fatal(err)
			}
			within := func(rs []NNResult) []NNResult {
				var in []NNResult
				for _, r := range rs {
					if r.ExpectedDist <= bound {
						in = append(in, r)
					}
				}
				return in
			}
			if w, g := within(full), within(got); !reflect.DeepEqual(w, g) {
				t.Fatalf("trial %d, bound %g: neighbours within it %v, want %v", trial, bound, g, w)
			}
			if st.NodeAccesses > fullStats.NodeAccesses || st.DistanceComps > fullStats.DistanceComps {
				t.Fatalf("trial %d, bound %g: the bound added work: %+v vs %+v", trial, bound, st, fullStats)
			}
			pruned += st.BoundPruned
		}
	}
	if pruned == 0 {
		t.Fatal("no frontier entry was ever abandoned under a bound")
	}
}

// --- Probability-bound filter ------------------------------------------------

// TestProbFilterEquivalence: the probability-bound filter is always on, so
// its contract is checked against brute force — no query's result set may
// change — while it actually prunes refinement work in its enrichment
// zone: narrow queries hitting the core of a pdf with a threshold above
// the mass the rect can capture, which the paper's rectangle-test rules
// cannot prune.
func TestProbFilterEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	objs := makeObjects(500, 1000, rng)
	scan := NewScan(objs, 9)
	for _, kind := range []Kind{UTree, UPCR} {
		tree := buildTree(t, kind, objs, 0)
		totalPruned := 0
		for q := 0; q < 160; q++ {
			var rq geom.Rect
			var pq float64
			if q%2 == 0 {
				// Broad random rects: the equivalence half of the contract.
				rq = randomQueryRect(rng, 1000)
				pq = 0.05 + rng.Float64()*0.9
			} else {
				// Narrow interior rects over an object's center: the zone
				// where the slab bound out-prunes Observations 2/3.
				c := objs[rng.Intn(len(objs))].PDF.Center()
				h := 3 + rng.Float64()*10
				rq = geom.NewRect(geom.Point{c[0] - h, c[1] - h}, geom.Point{c[0] + h, c[1] + h})
				pq = 0.2 + rng.Float64()*0.6
			}
			query := Query{Rect: rq, Prob: pq}
			got, stats, err := rangeQuery(tree, query)
			if err != nil {
				t.Fatal(err)
			}
			if want := scan.BruteForce(query); !sameIDs(resultIDs(got), resultIDs(want)) {
				t.Fatalf("%v query %d (pq=%.3f): got %v, brute force %v", kind, q, pq, resultIDs(got), resultIDs(want))
			}
			totalPruned += stats.ProbFilterPruned
		}
		if totalPruned == 0 {
			t.Fatalf("%v: prob filter never pruned across 160 queries", kind)
		}
	}
}

// --- Ablation knobs ----------------------------------------------------------

func TestSplitStrategiesStayCorrect(t *testing.T) {
	if testing.Short() {
		t.Skip("long-running; skipped with -short")
	}
	rng := rand.New(rand.NewSource(29))
	objs := makeObjects(500, 700, rng)
	scan := NewScan(objs, 9)
	for _, strat := range []SplitStrategy{SplitMedian, SplitAtZero, SplitSummed} {
		tree, err := New(Options{Dim: 2, SplitStrategy: strat})
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range objs {
			if err := tree.Insert(o); err != nil {
				t.Fatal(err)
			}
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("strategy %d: %v", strat, err)
		}
		for q := 0; q < 25; q++ {
			query := Query{Rect: randomQueryRect(rng, 700), Prob: 0.05 + rng.Float64()*0.9}
			got, _, err := rangeQuery(tree, query)
			if err != nil {
				t.Fatal(err)
			}
			if !sameIDs(resultIDs(got), resultIDs(scan.BruteForce(query))) {
				t.Fatalf("strategy %d query %d mismatch", strat, q)
			}
		}
	}
}

func TestDisableReinsertStaysCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	objs := makeObjects(500, 700, rng)
	tree, err := New(Options{Dim: 2, DisableReinsert: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range objs {
		if err := tree.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	scan := NewScan(objs, 9)
	for q := 0; q < 25; q++ {
		query := Query{Rect: randomQueryRect(rng, 700), Prob: 0.05 + rng.Float64()*0.9}
		got, _, err := rangeQuery(tree, query)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(resultIDs(got), resultIDs(scan.BruteForce(query))) {
			t.Fatalf("query %d mismatch with reinsert disabled", q)
		}
	}
}

// --- Polygon / mixture objects through the full stack ------------------------

func TestPolygonAndMixtureObjectsEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var objs []Object
	for i := 0; i < 120; i++ {
		cx, cy := rng.Float64()*500, rng.Float64()*500
		if i%2 == 0 {
			// Random convex polygon: hull of 6 points around (cx, cy).
			pts := make([]geom.Point, 6)
			for k := range pts {
				pts[k] = geom.Point{cx + rng.Float64()*40 - 20, cy + rng.Float64()*40 - 20}
			}
			objs = append(objs, Object{ID: int64(i), PDF: updf.NewUniformPolygon(pts)})
		} else {
			m := updf.NewMixture([]updf.PDF{
				updf.NewUniformBall(geom.Point{cx, cy}, 8),
				updf.NewUniformBall(geom.Point{cx + 25, cy + 10}, 6),
			}, []float64{2, 1})
			objs = append(objs, Object{ID: int64(i), PDF: m})
		}
	}
	tree, err := New(Options{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range objs {
		if err := tree.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	scan := NewScan(objs, 9)
	for q := 0; q < 40; q++ {
		query := Query{Rect: randomQueryRect(rng, 500), Prob: 0.05 + rng.Float64()*0.9}
		got, _, err := rangeQuery(tree, query)
		if err != nil {
			t.Fatal(err)
		}
		want := scan.BruteForce(query)
		if !sameIDs(resultIDs(got), resultIDs(want)) {
			t.Fatalf("polygon/mixture query %d mismatch", q)
		}
	}
	// Deletions work for these pdfs too.
	for _, o := range objs[:30] {
		if err := tree.Delete(o.ID); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteAfterBulkLoadSharedShapes: insert-then-delete must succeed on
// trees bulk-loaded with identically shaped objects in any order. The
// shared quantile cache used to make leaf CFBs depend on which object
// computed the cached quantiles first, and a ~1e-13 undershoot versus the
// MBR made the strict delete descent miss freshly inserted entries for
// some load orders (the failing orders varied with Go's map iteration).
func TestDeleteAfterBulkLoadSharedShapes(t *testing.T) {
	for shuf := int64(0); shuf < 8; shuf++ {
		rng := rand.New(rand.NewSource(1000 + shuf))
		objs := make([]Object, 120)
		for i := range objs {
			ctr := geom.Point{250 + rng.Float64()*9500, 250 + rng.Float64()*9500}
			objs[i] = Object{ID: int64(i), PDF: updf.NewUniformBall(ctr, 250)}
		}
		rng.Shuffle(len(objs), func(i, j int) { objs[i], objs[j] = objs[j], objs[i] })
		tree, err := New(Options{Dim: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.BulkLoad(objs); err != nil {
			t.Fatal(err)
		}
		for op := int64(0); op < 150; op++ {
			ctr := geom.Point{250 + rng.Float64()*9500, 250 + rng.Float64()*9500}
			pdf := updf.NewUniformBall(ctr, 250)
			id := 1_000_000 + op
			if err := tree.Insert(Object{ID: id, PDF: pdf}); err != nil {
				t.Fatal(err)
			}
			if op%2 == 0 {
				if err := tree.Delete(id); err != nil {
					t.Fatalf("shuffle %d op %d: delete %d: %v", shuf, op, id, err)
				}
			}
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("shuffle %d: %v", shuf, err)
		}
	}
}
