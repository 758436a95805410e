package uncertain

import (
	"context"
	"math/rand"
	"path/filepath"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	tree, err := NewTree(Config{Dimensions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()

	// A client whose position is uniform in a circle of radius 25 around
	// (300, 400).
	if err := tree.Insert(1, UniformCircle(Pt(300, 400), 25)); err != nil {
		t.Fatal(err)
	}
	// A sensor reading with Gaussian noise in a box.
	if err := tree.Insert(2, TruncatedGaussianBox(
		Box(Pt(500, 500), Pt(560, 560)), Pt(530, 530), []float64{15, 15})); err != nil {
		t.Fatal(err)
	}

	// Query covering object 1 entirely: must validate it.
	res, stats, err := tree.Search(context.Background(), Box(Pt(250, 350), Pt(350, 450)), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != 1 {
		t.Fatalf("results: %+v", res)
	}
	if stats.ProbComputations != 0 {
		t.Fatalf("full containment should not compute probabilities: %+v", stats)
	}

	// Query covering half of object 1: P = 0.5, threshold 0.6 fails,
	// threshold 0.4 qualifies.
	half := Box(Pt(250, 350), Pt(300, 450))
	res, _, err = tree.Search(context.Background(), half, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("P=0.5 object returned at pq=0.6: %+v", res)
	}
	res, _, err = tree.Search(context.Background(), half, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != 1 {
		t.Fatalf("P=0.5 object at pq=0.4: %+v", res)
	}
	// The index may validate it directly (Rule 5: mass left of the covered
	// half ≥ 0.4) or refine it; both are correct.
	if !res[0].Validated && (res[0].Prob < 0.49 || res[0].Prob > 0.51) {
		t.Fatalf("refined probability off: %+v", res[0])
	}
}

func TestAllConstructors(t *testing.T) {
	tree, err := NewTree(Config{Dimensions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	pdfs := []PDF{
		UniformCircle(Pt(100, 100), 10),
		UniformBox(Box(Pt(200, 200), Pt(220, 230))),
		ConstrainedGaussian(Pt(300, 300), 20, 10),
		TruncatedGaussianBox(Box(Pt(400, 400), Pt(440, 440)), Pt(420, 420), []float64{10, 10}),
		ExponentialBox(Box(Pt(500, 500), Pt(540, 540)), []float64{0.1, 0.05}),
		Histogram(Box(Pt(600, 600), Pt(630, 630)), []int{3, 3}, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}),
	}
	for i, p := range pdfs {
		if err := tree.Insert(int64(i), p); err != nil {
			t.Fatalf("pdf %d: %v", i, err)
		}
	}
	res, _, err := tree.Search(context.Background(), Box(Pt(0, 0), Pt(1000, 1000)), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(pdfs) {
		t.Fatalf("covering search found %d of %d", len(res), len(pdfs))
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteByID(t *testing.T) {
	tree, _ := NewTree(Config{Dimensions: 2})
	defer tree.Close()
	tree.Insert(7, UniformCircle(Pt(50, 50), 5))
	if err := tree.Delete(7); err != nil {
		t.Fatal(err)
	}
	if tree.Len() != 0 {
		t.Fatal("delete left object behind")
	}
	if err := tree.Delete(7); err == nil {
		t.Fatal("double delete succeeded")
	}
}

func TestFileBackedRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.utree")
	tree, err := NewTree(Config{Dimensions: 2, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	type obj struct {
		id int64
		p  PDF
	}
	var objs []obj
	for i := 0; i < 300; i++ {
		p := UniformCircle(Pt(rng.Float64()*1000, rng.Float64()*1000), 12)
		objs = append(objs, obj{int64(i), p})
		if err := tree.Insert(int64(i), p); err != nil {
			t.Fatal(err)
		}
	}
	probe := Box(Pt(200, 200), Pt(600, 600))
	want, _, err := tree.Search(context.Background(), probe, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenTree(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 300 {
		t.Fatalf("reopened Len = %d", re.Len())
	}
	got, _, err := re.Search(context.Background(), probe, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("reopened search: %d vs %d results", len(got), len(want))
	}
	// OpenTree rebuilt the directory: a bare ID deletes.
	if err := re.Delete(objs[0].id); err != nil {
		t.Fatal(err)
	}
	if re.Len() != 299 {
		t.Fatalf("Len after delete = %d", re.Len())
	}
	if err := re.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigErrors(t *testing.T) {
	if _, err := NewTree(Config{}); err == nil {
		t.Error("zero dimensions accepted")
	}
	if _, err := NewTree(Config{Dimensions: 2, Path: "/nonexistent-dir-xyz/idx"}); err == nil {
		t.Error("unwritable path accepted")
	}
	if _, err := OpenTree("/nonexistent-dir-xyz/idx", Config{}); err == nil {
		t.Error("open of missing file succeeded")
	}
}

func TestSizeAndHeightReporting(t *testing.T) {
	tree, _ := NewTree(Config{Dimensions: 2})
	defer tree.Close()
	if tree.Height() != 1 || tree.Len() != 0 {
		t.Fatal("empty tree geometry wrong")
	}
	for i := 0; i < 500; i++ {
		tree.Insert(int64(i), UniformCircle(Pt(float64(i%100)*10, float64(i/100)*10), 3))
	}
	if tree.Height() < 2 {
		t.Fatalf("height %d after 500 inserts", tree.Height())
	}
	if tree.SizeBytes() <= 0 {
		t.Fatal("SizeBytes not positive")
	}
}
