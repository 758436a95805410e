package core

import (
	"math"
	"math/rand"
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
	tree, err := New(Options{Dim: 2, ExactRefinement: true, MCSamples: 2000})
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
	bulk, err := New(Options{Dim: 2, ExactRefinement: true})
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
	tree, err := New(Options{Dim: 2, ExactRefinement: true})
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
		if err := tree.Delete(o.ID, o.PDF.MBR()); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	scan := NewScan(objs[100:], 9, 0, true, 1)
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
		tree, _ := New(Options{Dim: 2, ExactRefinement: true})
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

// --- Cost model --------------------------------------------------------------

func TestCostModelPredictsWithinBand(t *testing.T) {
	if testing.Short() {
		t.Skip("long-running; skipped with -short")
	}
	rng := rand.New(rand.NewSource(27))
	objs := makeObjects(2500, 2000, rng)
	tree := buildTree(t, UTree, objs, 0)
	domain := geom.NewRect(geom.Point{0, 0}, geom.Point{2000, 2000})
	cm, err := tree.BuildCostModel(domain)
	if err != nil {
		t.Fatal(err)
	}
	if cm.Levels() < 2 {
		t.Fatalf("model has %d levels", cm.Levels())
	}

	type sample struct{ pred, meas float64 }
	var samples []sample
	for _, qs := range []float64{100, 200, 400, 800} {
		j := tree.CatalogIndexFor(0.6)
		pred := cm.EstimateNodeAccesses([]float64{qs, qs}, 0.6, j)
		var meas float64
		const nq = 30
		for i := 0; i < nq; i++ {
			c := objs[rng.Intn(len(objs))].PDF.Center()
			rq := geom.NewRect(
				geom.Point{c[0] - qs/2, c[1] - qs/2},
				geom.Point{c[0] + qs/2, c[1] + qs/2})
			_, stats, err := rangeQuery(tree, Query{Rect: rq, Prob: 0.6})
			if err != nil {
				t.Fatal(err)
			}
			meas += float64(stats.NodeAccesses)
		}
		meas /= nq
		samples = append(samples, sample{pred, meas})
	}
	// Uncalibrated predictions must be monotone in qs and within a factor
	// of 4 (data-following query centers bias the uniform model).
	for i := 1; i < len(samples); i++ {
		if samples[i].pred <= samples[i-1].pred {
			t.Fatalf("prediction not monotone in qs: %+v", samples)
		}
	}
	for _, s := range samples {
		ratio := s.pred / s.meas
		if ratio < 0.25 || ratio > 4 {
			t.Fatalf("uncalibrated prediction off by >4×: pred=%.1f meas=%.1f", s.pred, s.meas)
		}
	}
	// Calibration tightens the fit.
	preds := make([]float64, len(samples))
	meass := make([]float64, len(samples))
	for i, s := range samples {
		preds[i] = s.pred
		meass[i] = s.meas
	}
	if err := cm.Calibrate(preds, meass); err != nil {
		t.Fatal(err)
	}
	for i, s := range samples {
		cal := s.pred * cm.CalibrationFactor()
		if ratio := cal / s.meas; ratio < 0.5 || ratio > 2 {
			t.Fatalf("calibrated sample %d off by >2×: %.1f vs %.1f", i, cal, s.meas)
		}
	}
}

func TestCostModelValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	objs := makeObjects(100, 300, rng)
	tree := buildTree(t, UTree, objs, 0)
	if _, err := tree.BuildCostModel(geom.NewRect(geom.Point{0}, geom.Point{1})); err == nil {
		t.Error("wrong-dim domain accepted")
	}
	flat := geom.Rect{Lo: geom.Point{0, 0}, Hi: geom.Point{300, 0}}
	if _, err := tree.BuildCostModel(flat); err == nil {
		t.Error("zero-extent domain accepted")
	}
	cm, err := tree.BuildCostModel(geom.NewRect(geom.Point{0, 0}, geom.Point{300, 300}))
	if err != nil {
		t.Fatal(err)
	}
	if err := cm.Calibrate(nil, nil); err == nil {
		t.Error("empty calibration accepted")
	}
	if err := cm.Calibrate([]float64{0}, []float64{1}); err == nil {
		t.Error("zero-prediction calibration accepted")
	}
}

// --- Ablation knobs ----------------------------------------------------------

func TestSplitStrategiesStayCorrect(t *testing.T) {
	if testing.Short() {
		t.Skip("long-running; skipped with -short")
	}
	rng := rand.New(rand.NewSource(29))
	objs := makeObjects(500, 700, rng)
	scan := NewScan(objs, 9, 0, true, 1)
	for _, strat := range []SplitStrategy{SplitMedian, SplitAtZero, SplitSummed} {
		tree, err := New(Options{Dim: 2, ExactRefinement: true, SplitStrategy: strat})
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
	tree, err := New(Options{Dim: 2, ExactRefinement: true, DisableReinsert: true})
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
	scan := NewScan(objs, 9, 0, true, 1)
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
	tree, err := New(Options{Dim: 2, ExactRefinement: true})
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
	scan := NewScan(objs, 9, 0, true, 1)
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
		if err := tree.Delete(o.ID, o.PDF.MBR()); err != nil {
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
		tree, err := New(Options{Dim: 2, ExactRefinement: true, Seed: 7})
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
				if err := tree.Delete(id, pdf.MBR()); err != nil {
					t.Fatalf("shuffle %d op %d: delete %d: %v", shuf, op, id, err)
				}
			}
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("shuffle %d: %v", shuf, err)
		}
	}
}
