package uncertain

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestFacadeNearestNeighbors(t *testing.T) {
	tree, err := NewTree(Config{Dimensions: 2, MonteCarloSamples: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	// A line of circles; nearest to the origin is object 0.
	for i := int64(0); i < 10; i++ {
		tree.Insert(i, UniformCircle(Pt(float64(i)*100+50, 50), 10))
	}
	nns, stats, err := tree.NearestNeighbors(context.Background(), Pt(0, 50), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(nns) != 3 || nns[0].ID != 0 || nns[1].ID != 1 || nns[2].ID != 2 {
		t.Fatalf("nns = %+v", nns)
	}
	if nns[0].ExpectedDist >= nns[1].ExpectedDist {
		t.Fatal("not ascending")
	}
	if stats.NodeAccesses == 0 {
		t.Fatal("no node accesses recorded")
	}
}

func TestFacadeBulkLoad(t *testing.T) {
	tree, err := NewTree(Config{Dimensions: 2, ExactRefinement: true})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	rng := rand.New(rand.NewSource(5))
	batch := make(map[int64]PDF, 400)
	for i := int64(0); i < 400; i++ {
		batch[i] = UniformCircle(Pt(rng.Float64()*1000, rng.Float64()*1000), 10)
	}
	if err := tree.BulkLoad(batch); err != nil {
		t.Fatal(err)
	}
	if tree.Len() != 400 {
		t.Fatalf("Len = %d", tree.Len())
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Delete-by-ID works for bulk-loaded objects too.
	if err := tree.Delete(7); err != nil {
		t.Fatal(err)
	}
	res, _, err := tree.Search(context.Background(), Box(Pt(-10, -10), Pt(1010, 1010)), 0.5)
	if err != nil || len(res) != 399 {
		t.Fatalf("search after bulk+delete: %v, %d results", err, len(res))
	}
}

// TestBulkLoadDeterministic: the load is a function of the object set, not
// of map order or of how the build workers were scheduled — same file bytes,
// same Monte-Carlo answers, same I/O counts.
func TestBulkLoadDeterministic(t *testing.T) {
	const n = 600
	rng := rand.New(rand.NewSource(6))
	pdfs := make([]PDF, n)
	for i := range pdfs {
		c := Pt(rng.Float64()*1000, rng.Float64()*1000)
		if i%2 == 0 {
			pdfs[i] = UniformCircle(c, 12)
		} else {
			pdfs[i] = ConstrainedGaussian(c, 12, 6)
		}
	}
	forward := make(map[int64]PDF, n)
	backward := make(map[int64]PDF, n)
	for i := 0; i < n; i++ {
		forward[int64(i)] = pdfs[i]
		backward[int64(n-1-i)] = pdfs[n-1-i]
	}
	queries := shardedFixtureQueries(25, 7)

	type answer struct {
		res   []Result
		stats Stats
	}
	load := func(objects map[int64]PDF) ([]byte, []answer) {
		path := filepath.Join(t.TempDir(), "det.idx")
		tree, err := NewTree(Config{Dimensions: 2, Path: path, MonteCarloSamples: 300, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.BulkLoad(objects); err != nil {
			t.Fatal(err)
		}
		answers := make([]answer, len(queries))
		for i, q := range queries {
			res, stats, err := tree.Search(context.Background(), q.Rect, q.Prob)
			if err != nil {
				t.Fatal(err)
			}
			stats.FilterTime, stats.RefineTime = 0, 0
			answers[i] = answer{res, stats}
		}
		if err := tree.Close(); err != nil {
			t.Fatal(err)
		}
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return file, answers
	}
	fileA, ansA := load(forward)
	fileB, ansB := load(backward)
	if !bytes.Equal(fileA, fileB) {
		t.Error("two loads of one object set wrote different files")
	}
	refined := 0
	for i := range ansA {
		if !reflect.DeepEqual(ansA[i], ansB[i]) {
			t.Errorf("query %d: answers or stats differ between the two loads:\n%+v\n%+v", i, ansA[i].stats, ansB[i].stats)
		}
		refined += ansA[i].stats.RefinementIOs
	}
	if refined == 0 {
		t.Fatal("no query refined anything; the comparison is vacuous")
	}
}

func TestFacadePolygonAndMixture(t *testing.T) {
	tree, err := NewTree(Config{Dimensions: 2, ExactRefinement: true})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	poly := UniformPolygon([]Point{Pt(0, 0), Pt(40, 0), Pt(40, 30), Pt(0, 30)})
	mix := MixturePDF([]PDF{
		UniformCircle(Pt(200, 200), 10),
		UniformCircle(Pt(240, 200), 10),
	}, []float64{1, 1})
	tree.Insert(1, poly)
	tree.Insert(2, mix)
	res, _, err := tree.Search(context.Background(), Box(Pt(-10, -10), Pt(300, 300)), 0.9)
	if err != nil || len(res) != 2 {
		t.Fatalf("search: %v, %d results", err, len(res))
	}
	// Half of the mixture: P = 0.5.
	res, _, err = tree.Search(context.Background(), Box(Pt(150, 150), Pt(220, 250)), 0.6)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.ID == 2 {
			t.Fatalf("mixture with P=0.5 returned at pq=0.6: %+v", r)
		}
	}
}

func TestFacadeCostModel(t *testing.T) {
	if testing.Short() {
		t.Skip("long-running; skipped with -short")
	}
	tree, err := NewTree(Config{Dimensions: 2, ExactRefinement: true})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	rng := rand.New(rand.NewSource(6))
	for i := int64(0); i < 1500; i++ {
		tree.Insert(i, UniformCircle(Pt(rng.Float64()*1000, rng.Float64()*1000), 8))
	}
	cm, err := tree.BuildCostModel(Box(Pt(0, 0), Pt(1000, 1000)))
	if err != nil {
		t.Fatal(err)
	}
	j := tree.CatalogIndexFor(0.6)
	small := cm.EstimateNodeAccesses([]float64{50, 50}, 0.6, j)
	large := cm.EstimateNodeAccesses([]float64{500, 500}, 0.6, j)
	if small >= large {
		t.Fatalf("estimates not monotone: %g vs %g", small, large)
	}
	if small < 1 {
		t.Fatalf("estimate below 1 (root always visited): %g", small)
	}
}
