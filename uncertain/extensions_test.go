package uncertain

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/pagefile"
	"repro/internal/pagefile/chaos"
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
	tree, err := NewTree(Config{Dimensions: 2})
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

// TestBulkLoadEmptyRootFault: a load's last step reads and frees the empty
// root a new tree starts with. A failed read of that page fails the load
// and rolls it back: the tree is empty, every live page is reachable (the
// root was neither leaked nor freed twice), and a retry succeeds.
func TestBulkLoadEmptyRootFault(t *testing.T) {
	var base pagefile.Store
	var inj *chaos.Store
	tree, err := NewTree(Config{Dimensions: 2, WrapStore: func(s pagefile.Store) pagefile.Store {
		base, inj = s, chaos.New(s, 1)
		return inj
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	// A memory tree has no metadata page: every live page is reachable.
	noLeak := func(when string) map[pagefile.PageID]bool {
		t.Helper()
		reach, err := tree.inner.ReachablePages()
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if live := base.NumPages(); live != len(reach) {
			t.Fatalf("%s: %d live pages, %d reachable", when, live, len(reach))
		}
		return reach
	}
	reach := noLeak("new tree")
	if len(reach) != 1 {
		t.Fatalf("a new tree reaches %d pages, want its root alone", len(reach))
	}
	var root pagefile.PageID
	for p := range reach {
		root = p
	}
	fault, err := inj.AddRule(chaos.Rule{Op: chaos.OpRead, Fault: chaos.FaultPermanent, Pages: []pagefile.PageID{root}})
	if err != nil {
		t.Fatal(err)
	}

	objs := shardedFixtureObjects(300, 5)
	if err := tree.BulkLoad(objs); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("BulkLoad with the empty root unreadable: %v, want ErrInjected", err)
	}
	if fault.Triggered() != 1 {
		t.Fatalf("the root read fault fired %d times, want 1", fault.Triggered())
	}
	if tree.Len() != 0 {
		t.Fatalf("failed load left %d objects", tree.Len())
	}
	noLeak("rolled back")
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	if err := tree.BulkLoad(objs); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if tree.Len() != len(objs) {
		t.Fatalf("Len %d after the retry, want %d", tree.Len(), len(objs))
	}
	if reach := noLeak("reloaded"); reach[root] {
		t.Fatalf("the empty root %d is still reachable after the load", root)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	assertDirectory(t, "reloaded", tree)
}

// TestBulkLoadDeterministic: the load is a function of the object set, not
// of map order or of how the build workers were scheduled — same file bytes,
// same answers, same I/O counts.
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
		tree, err := NewTree(Config{Dimensions: 2, Path: path, MonteCarloSamples: 300})
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
	tree, err := NewTree(Config{Dimensions: 2})
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
