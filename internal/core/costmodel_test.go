package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/geom"
)

// --- Cost model edge cases ---------------------------------------------------

func TestCostModelEmptyTree(t *testing.T) {
	tree, err := New(Options{Dim: 2, ExactRefinement: true})
	if err != nil {
		t.Fatal(err)
	}
	domain := geom.NewRect(geom.Point{0, 0}, geom.Point{100, 100})
	cm, err := tree.BuildCostModel(domain)
	if err != nil {
		t.Fatalf("empty tree: %v", err)
	}
	// The empty root is the only (empty) level; every query is predicted
	// to cost exactly the root read.
	if got := cm.EstimateNodeAccesses([]float64{10, 10}, 0.5, 0); got != 1 {
		t.Fatalf("empty tree estimate = %v, want 1", got)
	}
}

func TestCostModelSingleLevelTree(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	objs := makeObjects(5, 300, rng)
	tree := buildTree(t, UTree, objs, 0)
	if tree.rootLevel != 0 {
		t.Fatalf("fixture grew beyond one level (rootLevel=%d)", tree.rootLevel)
	}
	cm, err := tree.BuildCostModel(geom.NewRect(geom.Point{0, 0}, geom.Point{300, 300}))
	if err != nil {
		t.Fatal(err)
	}
	if cm.Levels() != 1 {
		t.Fatalf("Levels() = %d, want 1", cm.Levels())
	}
	// A single-level tree is just its root: the prediction must be exactly
	// 1 whatever the query shape or threshold.
	for _, qs := range []float64{1, 50, 10000} {
		if got := cm.EstimateNodeAccesses([]float64{qs, qs}, 0.3, tree.CatalogIndexFor(0.3)); got != 1 {
			t.Fatalf("qs=%v: estimate = %v, want 1", qs, got)
		}
	}
}

func TestCatalogIndexForBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tree := buildTree(t, UTree, makeObjects(10, 300, rng), 0)
	last := tree.cat.Size() - 1
	cases := []struct {
		pq   float64
		want int
	}{
		{0, 0},             // p_1 = 0 is the largest value ≤ 0
		{-0.5, 0},          // below the catalog: fallback to 0
		{0.5, last},        // p_m = 0.5 exactly
		{1, last},          // above the catalog max clamps to the last slab
		{0.5 + 1e-9, last}, // just past the max still clamps
	}
	for _, c := range cases {
		if got := tree.CatalogIndexFor(c.pq); got != c.want {
			t.Errorf("CatalogIndexFor(%v) = %d, want %d", c.pq, got, c.want)
		}
	}
}

func TestCalibrateRejectsMismatchedSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	tree := buildTree(t, UTree, makeObjects(50, 300, rng), 0)
	cm, err := tree.BuildCostModel(geom.NewRect(geom.Point{0, 0}, geom.Point{300, 300}))
	if err != nil {
		t.Fatal(err)
	}
	if err := cm.Calibrate([]float64{1, 2}, []float64{3}); err == nil {
		t.Error("mismatched sample lengths accepted")
	}
	if err := cm.Calibrate([]float64{}, []float64{}); err == nil {
		t.Error("zero-length samples accepted")
	}
	if err := cm.Calibrate([]float64{0, 0}, []float64{1, 2}); err == nil {
		t.Error("all-zero predictions accepted")
	}
	if cm.CalibrationFactor() != 1 {
		t.Errorf("failed calibrations moved the factor to %v", cm.CalibrationFactor())
	}
}

// --- NNBound -----------------------------------------------------------------

func TestNNBound(t *testing.T) {
	b := NewNNBound()
	if !math.IsInf(b.Load(), 1) {
		t.Fatalf("fresh bound = %v, want +Inf", b.Load())
	}
	b.Update(5)
	if b.Load() != 5 {
		t.Fatalf("after Update(5): %v", b.Load())
	}
	b.Update(7) // larger: no effect
	if b.Load() != 5 {
		t.Fatalf("Update(7) raised the bound to %v", b.Load())
	}
	b.Update(3)
	if b.Load() != 3 {
		t.Fatalf("after Update(3): %v", b.Load())
	}
	// Ignored inputs: zero (sentinel collision), NaN, +Inf.
	b.Update(0)
	b.Update(math.NaN())
	b.Update(math.Inf(1))
	if b.Load() != 3 {
		t.Fatalf("degenerate updates moved the bound to %v", b.Load())
	}
}

func TestNNBoundConcurrentMin(t *testing.T) {
	b := NewNNBound()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= 1000; i++ {
				b.Update(float64(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	if b.Load() != 1 {
		t.Fatalf("concurrent CAS-min settled at %v, want 1", b.Load())
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
	scan := NewScan(objs, 9, 0, true, 1)
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
