package dataset

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/updf"
)

func TestGenerateSizesAndTypes(t *testing.T) {
	cases := []struct {
		name Name
		dim  int
		full int
	}{
		{LB, 2, LBSize},
		{CA, 2, CASize},
		{Aircraft, 3, AircraftSize},
	}
	for _, c := range cases {
		objs := Generate(Config{Name: c.name, Scale: 0.01})
		want := int(float64(c.full) * 0.01)
		if len(objs) != want {
			t.Errorf("%s: %d objects, want %d", c.name, len(objs), want)
		}
		if c.name.Dim() != c.dim {
			t.Errorf("%s: Dim() = %d, want %d", c.name, c.name.Dim(), c.dim)
		}
		for i, o := range objs[:50] {
			if o.PDF.Dim() != c.dim {
				t.Fatalf("%s obj %d: pdf dim %d", c.name, i, o.PDF.Dim())
			}
			mbr := o.PDF.MBR()
			for k := 0; k < c.dim; k++ {
				if mbr.Lo[k] < -1e-9 || mbr.Hi[k] > Domain+1e-9 {
					t.Fatalf("%s obj %d: region %v outside domain", c.name, i, mbr)
				}
			}
		}
	}
}

func TestPDFTypesMatchPaper(t *testing.T) {
	lb := Generate(Config{Name: LB, Scale: 0.005})
	if _, ok := lb[0].PDF.(*updf.UniformBall); !ok {
		t.Errorf("LB pdf type %T, want UniformBall", lb[0].PDF)
	}
	if b := lb[0].PDF.(*updf.UniformBall); b.R != 250 {
		t.Errorf("LB radius %g, want 250 (2.5%% of the axis)", b.R)
	}
	ca := Generate(Config{Name: CA, Scale: 0.005})
	cg, ok := ca[0].PDF.(*updf.ConGauBall)
	if !ok {
		t.Fatalf("CA pdf type %T, want ConGauBall", ca[0].PDF)
	}
	if cg.R != 250 || cg.Sigma != 125 {
		t.Errorf("CA params r=%g σ=%g, want 250/125", cg.R, cg.Sigma)
	}
	air := Generate(Config{Name: Aircraft, Scale: 0.002})
	ab, ok := air[0].PDF.(*updf.UniformBall)
	if !ok {
		t.Fatalf("Aircraft pdf type %T, want UniformBall", air[0].PDF)
	}
	if ab.R != 125 {
		t.Errorf("Aircraft radius %g, want 125", ab.R)
	}
}

func TestDeterministicInSeed(t *testing.T) {
	a := Generate(Config{Name: LB, Scale: 0.01, Seed: 5})
	b := Generate(Config{Name: LB, Scale: 0.01, Seed: 5})
	c := Generate(Config{Name: LB, Scale: 0.01, Seed: 6})
	if len(a) != len(b) {
		t.Fatal("same seed, different sizes")
	}
	for i := range a {
		if !a[i].PDF.Center().Equal(b[i].PDF.Center()) {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
	same := 0
	for i := range a {
		if a[i].PDF.Center().Equal(c[i].PDF.Center()) {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical data")
	}
}

func TestClusteredPointsAreSkewed(t *testing.T) {
	// Compare the occupancy histogram of a clustered sample against a
	// uniform grid: clustering must concentrate mass (higher max-cell
	// share) — this is the property the TIGER substitution must preserve.
	pts := ClusteredPoints(20000, 2, 3, 40, 0.05)
	const g = 10
	var cells [g][g]int
	for _, p := range pts {
		x := int(p[0] / Domain * g)
		y := int(p[1] / Domain * g)
		if x >= g {
			x = g - 1
		}
		if y >= g {
			y = g - 1
		}
		cells[x][y]++
	}
	maxCell := 0
	for i := 0; i < g; i++ {
		for j := 0; j < g; j++ {
			if cells[i][j] > maxCell {
				maxCell = cells[i][j]
			}
		}
	}
	uniformShare := 1.0 / (g * g)
	share := float64(maxCell) / float64(len(pts))
	if share < 3*uniformShare {
		t.Fatalf("max cell share %.4f under 3× uniform (%.4f): not skewed", share, uniformShare)
	}
	for _, p := range pts {
		if p[0] < 0 || p[0] > Domain || p[1] < 0 || p[1] > Domain {
			t.Fatalf("point %v outside domain", p)
		}
	}
}

func TestAircraftGeometry(t *testing.T) {
	objs := Generate(Config{Name: Aircraft, Scale: 0.01})
	// Altitudes should span most of [0, 10000] (uniform), while (x, y)
	// follow airport segments.
	minZ, maxZ := math.Inf(1), math.Inf(-1)
	for _, o := range objs {
		z := o.PDF.Center()[2]
		minZ = math.Min(minZ, z)
		maxZ = math.Max(maxZ, z)
	}
	if minZ > 1500 || maxZ < 8500 {
		t.Fatalf("altitude range [%g, %g] not covering the domain", minZ, maxZ)
	}
}

// Points returns the centres of the objects Generate(cfg) makes, from a
// generation of their own.
func Points(cfg Config) []geom.Point {
	objs := Generate(cfg)
	pts := make([]geom.Point, len(objs))
	for i, o := range objs {
		pts[i] = o.PDF.Center()
	}
	return pts
}

func TestPointsMatchesGenerate(t *testing.T) {
	cfg := Config{Name: LB, Scale: 0.005, Seed: 9}
	objs := Generate(cfg)
	pts := Points(cfg)
	if len(objs) != len(pts) {
		t.Fatal("length mismatch")
	}
	for i := range pts {
		if !pts[i].Equal(objs[i].PDF.Center()) {
			t.Fatalf("point %d mismatch", i)
		}
	}
}

func TestScaleFloor(t *testing.T) {
	objs := Generate(Config{Name: LB, Scale: 0.000001})
	if len(objs) != 100 {
		t.Fatalf("tiny scale produced %d objects, want floor 100", len(objs))
	}
}

func TestUnknownDatasetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown dataset did not panic")
		}
	}()
	Generate(Config{Name: "nope"})
}

func TestAllDatasets(t *testing.T) {
	names := All()
	if len(names) != 3 || names[0] != LB || names[1] != CA || names[2] != Aircraft {
		t.Fatalf("All() = %v", names)
	}
}

func TestClampCenter(t *testing.T) {
	p := clampCenter(geom.Point{10, 9995}, 250)
	if p[0] != 250 || p[1] != Domain-250 {
		t.Fatalf("clamp = %v", p)
	}
}
