package experiments

import (
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/workload"
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
		objs := dataset.Generate(dataset.Config{Name: name, Scale: cfg.Scale, Seed: cfg.Seed})
		centers := centersOf(objs)
		fprintf(out, "%10s", name)
		for _, m := range mValues {
			t, err := core.New(core.Options{
				Dim:         name.Dim(),
				Kind:        core.UPCR,
				CatalogSize: m,
			})
			if err != nil {
				return nil, err
			}
			for _, o := range objs {
				if err := t.Insert(o); err != nil {
					return nil, err
				}
			}
			var agg WorkloadMetrics
			for wi, pq := range pqValues {
				w := workload.New(workload.Config{
					QS: 500, PQ: pq, Count: cfg.Queries,
					Seed: cfg.Seed + int64(wi), Domain: dataset.Domain, Centers: centers,
				})
				wm, err := runWorkload(t, w)
				if err != nil {
					return nil, err
				}
				agg.NodeAccesses += wm.NodeAccesses
				agg.ProbComps += wm.ProbComps
				agg.RefineIOs += wm.RefineIOs
				agg.TotalCostSec += wm.TotalCostSec
			}
			k := float64(len(pqValues))
			agg.NodeAccesses /= k
			agg.ProbComps /= k
			agg.RefineIOs /= k
			agg.TotalCostSec /= k
			points = append(points, Fig8Point{Dataset: name, M: m, Cost: agg})
			fprintf(out, "   %-9.3f", agg.TotalCostSec)
		}
		fprintf(out, "   (query cost, sec)\n")
	}
	return points, nil
}
