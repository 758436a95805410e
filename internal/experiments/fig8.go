package experiments

import (
	"repro/internal/core"
	"repro/internal/dataset"
)

// Fig8Point is one (dataset, m) sample of Figure 8: the average query cost
// of U-PCR as a function of its catalog size.
type Fig8Point struct {
	Dataset dataset.Name
	M       int
	Cost    WorkloadMetrics
}

// Fig8 reproduces Figure 8 ("Tuning the catalog size for U-PCR"): for each
// dataset, U-PCR trees with m ∈ mValues answer workloads with qs = 500 and
// pq sweeping a range; the per-dataset cost curve is U-shaped with its
// minimum around m = 9..10. The paper uses 80 workloads (pq = 0.11..0.9);
// the default here sweeps a 6-point subset — the curve shape is preserved
// (each added pq multiplies runtime).
func Fig8(cfg Config, mValues []int, pqValues []float64) ([]Fig8Point, error) {
	cfg = cfg.withDefaults()
	if len(mValues) == 0 {
		mValues = []int{3, 4, 6, 8, 10, 12}
	}
	if len(pqValues) == 0 {
		pqValues = []float64{0.15, 0.3, 0.45, 0.6, 0.75, 0.9}
	}
	var points []Fig8Point
	out := cfg.Out
	fprintf(out, "Figure 8: tuning the catalog size m for U-PCR (qs=500)\n")
	fprintf(out, "%10s", "dataset")
	for _, m := range mValues {
		fprintf(out, "   m=%-7d", m)
	}
	fprintf(out, "\n")

	for _, name := range dataset.All() {
		d := generate(name, cfg)
		fprintf(out, "%10s", name)
		for _, m := range mValues {
			t, _, err := d.build(core.Options{Kind: core.UPCR, CatalogSize: m})
			if err != nil {
				return nil, err
			}
			ws := make([]WorkloadMetrics, len(pqValues))
			for wi, pq := range pqValues {
				if ws[wi], err = d.runWorkload(t, 500, pq, wi); err != nil {
					return nil, err
				}
			}
			cost := mean(ws)
			points = append(points, Fig8Point{Dataset: name, M: m, Cost: cost})
			fprintf(out, "   %-9.3f", cost.TotalCostSec)
		}
		fprintf(out, "   (query cost, sec)\n")
	}
	return points, nil
}
