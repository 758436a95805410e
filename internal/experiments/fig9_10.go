package experiments

import (
	"repro/internal/core"
	"repro/internal/dataset"
)

// SweepPoint is one (dataset, structure, x) sample of Figures 9 and 10:
// the three cost metrics at one sweep position.
type SweepPoint struct {
	Dataset dataset.Name
	Kind    core.Kind
	X       float64 // qs (Fig 9) or pq (Fig 10)
	Metrics WorkloadMetrics
}

// Fig9 reproduces Figure 9: query cost versus the search-region size qs ∈
// {500..2500} at pq = 0.6, for both structures on all three datasets. Each
// dataset yields three panels (node accesses, probability computations +
// validated %, total cost).
func Fig9(cfg Config, qsValues []float64) ([]SweepPoint, error) {
	cfg = cfg.withDefaults()
	if len(qsValues) == 0 {
		qsValues = []float64{500, 1000, 1500, 2000, 2500}
	}
	return sweep(cfg, "Figure 9: effect of query size qs (pq = 0.6)", qsValues,
		func(x float64) (qs, pq float64) { return x, 0.6 })
}

// Fig10 reproduces Figure 10: query cost versus the probability threshold
// pq ∈ {0.3..0.9} at qs = 1500.
func Fig10(cfg Config, pqValues []float64) ([]SweepPoint, error) {
	cfg = cfg.withDefaults()
	if len(pqValues) == 0 {
		pqValues = []float64{0.3, 0.45, 0.6, 0.75, 0.9}
	}
	return sweep(cfg, "Figure 10: effect of probability threshold pq (qs = 1500)", pqValues,
		func(x float64) (qs, pq float64) { return 1500, x })
}

// sweep runs the shared Fig 9/10 machinery: both structures on every
// dataset answer one workload for each x, whose qs and pq at(x) gives.
func sweep(cfg Config, title string, xs []float64, at func(x float64) (qs, pq float64)) ([]SweepPoint, error) {
	var points []SweepPoint
	out := cfg.Out
	fprintf(out, "%s\n", title)
	for _, name := range dataset.All() {
		d := generate(name, cfg)
		for _, kind := range []core.Kind{core.UTree, core.UPCR} {
			t, _, err := d.build(core.Options{Kind: kind, CatalogSize: paperCatalog(name, kind)})
			if err != nil {
				return nil, err
			}
			fprintf(out, "%10s %-7v", name, kind)
			for wi, x := range xs {
				qs, pq := at(x)
				m, err := d.runWorkload(t, qs, pq, wi)
				if err != nil {
					return nil, err
				}
				points = append(points, SweepPoint{Dataset: name, Kind: kind, X: x, Metrics: m})
				fprintf(out, "  [x=%g io=%.1f cands=%.1f probs=%.1f val=%.0f%% cost=%.3fs]",
					x, m.NodeAccesses, m.Candidates, m.ProbComps, m.ValidatedPct, m.TotalCostSec)
			}
			fprintf(out, "\n")
		}
	}
	return points, nil
}
