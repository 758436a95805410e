package experiments

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
)

// tiny returns a configuration small enough for unit tests.
func tiny() Config {
	return Config{Scale: 0.004, Queries: 10, Seed: 7}
}

func TestFig7ErrorShrinksWithSamples(t *testing.T) {
	rows, err := Fig7(tiny(), []int{200, 20000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[1].Err2D >= rows[0].Err2D {
		t.Fatalf("2D error did not shrink: %g → %g", rows[0].Err2D, rows[1].Err2D)
	}
	if rows[1].Err3D >= rows[0].Err3D {
		t.Fatalf("3D error did not shrink: %g → %g", rows[0].Err3D, rows[1].Err3D)
	}
	if rows[1].CostPerComp <= rows[0].CostPerComp {
		t.Fatalf("cost per computation did not grow: %v → %v", rows[0].CostPerComp, rows[1].CostPerComp)
	}
}

func TestTable1Shapes(t *testing.T) {
	rows, err := Table1(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.UTreeBytes >= r.UPCRBytes {
			t.Errorf("%s: U-tree %d ≥ U-PCR %d bytes", r.Dataset, r.UTreeBytes, r.UPCRBytes)
		}
		ratio := float64(r.UPCRBytes) / float64(r.UTreeBytes)
		if ratio < 1.4 {
			t.Errorf("%s: size ratio %.2f below expected band (paper ≈ 2.4–2.8)", r.Dataset, ratio)
		}
		if r.UTreeLeafFanout <= r.UPCRLeafFanout {
			t.Errorf("%s: U-tree leaf fanout %d not above U-PCR %d",
				r.Dataset, r.UTreeLeafFanout, r.UPCRLeafFanout)
		}
	}
}

func TestFig9Shapes(t *testing.T) {
	points, err := Fig9(tiny(), []float64{500, 2500})
	if err != nil {
		t.Fatal(err)
	}
	// Index points by (dataset, kind, x).
	get := func(d dataset.Name, k core.Kind, x float64) WorkloadMetrics {
		for _, p := range points {
			if p.Dataset == d && p.Kind == k && p.X == x {
				return p.Metrics
			}
		}
		t.Fatalf("missing point %s/%v/%g", d, k, x)
		return WorkloadMetrics{}
	}
	for _, d := range dataset.All() {
		// Node accesses grow with qs for both structures.
		for _, k := range []core.Kind{core.UTree, core.UPCR} {
			if get(d, k, 2500).NodeAccesses <= get(d, k, 500).NodeAccesses {
				t.Errorf("%s/%v: node accesses did not grow with qs", d, k)
			}
		}
		// The U-tree's I/O advantage (the paper's headline).
		if get(d, core.UTree, 2500).NodeAccesses >= get(d, core.UPCR, 2500).NodeAccesses {
			t.Errorf("%s: U-tree node accesses not below U-PCR at qs=2500", d)
		}
	}
}

func TestFig10Shapes(t *testing.T) {
	points, err := Fig10(tiny(), []float64{0.3, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	byKind := map[core.Kind]float64{}
	for _, p := range points {
		byKind[p.Kind] += p.Metrics.NodeAccesses
	}
	if byKind[core.UTree] >= byKind[core.UPCR] {
		t.Errorf("U-tree total node accesses %.1f ≥ U-PCR %.1f", byKind[core.UTree], byKind[core.UPCR])
	}
}

func TestFig11Shapes(t *testing.T) {
	rows, err := Fig11(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.InsertCPUSec <= 0 || r.InsertIOCostSec <= 0 {
			t.Errorf("%s: empty insert stats: %+v", r.Dataset, r)
		}
		if r.DeleteIOCostSec <= 0 {
			t.Errorf("%s: empty delete stats", r.Dataset)
		}
		// The paper's shape: deletion I/O exceeds insertion I/O.
		if r.DeleteIOCostSec <= r.InsertIOCostSec {
			t.Errorf("%s: delete I/O %.4f not above insert I/O %.4f",
				r.Dataset, r.DeleteIOCostSec, r.InsertIOCostSec)
		}
	}
}

func TestFig8CatalogCurve(t *testing.T) {
	points, err := Fig8(Config{Scale: 0.004, Queries: 8, Seed: 7},
		[]int{3, 9}, []float64{0.3, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 { // 3 datasets × 2 catalog sizes
		t.Fatalf("%d points", len(points))
	}
	for _, p := range points {
		if p.Cost.NodeAccesses <= 0 {
			t.Errorf("%s m=%d: zero node accesses", p.Dataset, p.M)
		}
	}
}

func TestAblationsRun(t *testing.T) {
	pts, err := Ablations(Config{Scale: 0.003, Queries: 6, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	byStudy := map[string][]AblationPoint{}
	for _, p := range pts {
		if p.Dataset != dataset.LB {
			t.Errorf("%s/%s: dataset %s", p.Study, p.Label, p.Dataset)
		}
		byStudy[p.Study] = append(byStudy[p.Study], p)
	}
	for _, s := range ablations {
		if got := len(byStudy[s.study]); got != len(s.variants) || got < 2 {
			t.Errorf("study %s: %d points, want one for each of %d variants", s.study, got, len(s.variants))
		}
	}
	// CFB entries (U-tree) must yield fewer pages at equal catalog.
	if cfb := byStudy["cfb"]; cfb[0].IndexPages >= cfb[1].IndexPages {
		t.Errorf("CFB pages %d ≥ PCR pages %d at equal m", cfb[0].IndexPages, cfb[1].IndexPages)
	}
}

// TestPrintedOutput runs every experiment and checks that it prints its
// title and a row for each dataset, structure or variant.
func TestPrintedOutput(t *testing.T) {
	datasets := []string{"LB", "CA", "Aircraft"}
	var sweepRows []string
	for _, d := range datasets {
		sweepRows = append(sweepRows, d+" U-tree", d+" U-PCR")
	}
	var ablationRows []string
	for _, s := range ablations {
		ablationRows = append(ablationRows, "Ablation: "+s.header)
		for _, v := range s.variants {
			ablationRows = append(ablationRows, v.label+"  io=")
		}
	}
	for _, tc := range []struct {
		title string
		run   func(Config) error
		rows  []string
	}{
		{"Figure 7:", func(c Config) error { _, err := Fig7(c, []int{100, 1000}); return err }, []string{"100 ", "1000 "}},
		{"Figure 8:", func(c Config) error { _, err := Fig8(c, []int{3, 9}, []float64{0.6}); return err }, datasets},
		{"Table 1:", func(c Config) error { _, err := Table1(c); return err }, datasets},
		{"Figure 9:", func(c Config) error { _, err := Fig9(c, []float64{1500}); return err }, sweepRows},
		{"Figure 10:", func(c Config) error { _, err := Fig10(c, []float64{0.6}); return err }, sweepRows},
		{"Figure 11:", func(c Config) error { _, err := Fig11(c); return err }, datasets},
		{"Ablation:", func(c Config) error { _, err := Ablations(c); return err }, ablationRows},
	} {
		var buf bytes.Buffer
		cfg := tiny()
		cfg.Out = &buf
		if err := tc.run(cfg); err != nil {
			t.Fatalf("%s %v", tc.title, err)
		}
		lines := strings.Split(buf.String(), "\n")
		if !strings.HasPrefix(lines[0], tc.title) {
			t.Errorf("first line %q, want the title %q", lines[0], tc.title)
		}
		for _, row := range tc.rows {
			if !slices.ContainsFunc(lines, func(l string) bool { return strings.HasPrefix(strings.TrimSpace(l), row) }) {
				t.Errorf("%s: no row starts with %q:\n%s", tc.title, row, buf.String())
			}
		}
	}
}
