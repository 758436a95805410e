package experiments

import (
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/workload"
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
	return sweep(cfg, "Figure 9: effect of query size qs (pq = 0.6)", qsValues, nil)
}

// Fig10 reproduces Figure 10: query cost versus the probability threshold
// pq ∈ {0.3..0.9} at qs = 1500.
func Fig10(cfg Config, pqValues []float64) ([]SweepPoint, error) {
	cfg = cfg.withDefaults()
	if len(pqValues) == 0 {
		pqValues = []float64{0.3, 0.45, 0.6, 0.75, 0.9}
	}
	return sweep(cfg, "Figure 10: effect of probability threshold pq (qs = 1500)", nil, pqValues)
}

// sweep runs the shared Fig 9/10 machinery: exactly one of qsValues /
// pqValues is non-nil; the other parameter is fixed to the paper's value.
func sweep(cfg Config, title string, qsValues []float64, pqValues []float64) ([]SweepPoint, error) {
	var points []SweepPoint
	out := cfg.Out
	fprintf(out, "%s\n", title)
	for _, name := range dataset.All() {
		objs := dataset.Generate(dataset.Config{Name: name, Scale: cfg.Scale, Seed: cfg.Seed})
		centers := centersOf(objs)
		for _, kind := range []core.Kind{core.UTree, core.UPCR} {
			t, _, _, err := buildTree(name, core.Options{Kind: kind, CatalogSize: paperCatalog(name, kind)}, cfg)
			if err != nil {
				return nil, err
			}
			xs := qsValues
			if xs == nil {
				xs = pqValues
			}
			fprintf(out, "%10s %-7v", name, kind)
			for wi, x := range xs {
				qs, pq := x, 0.6
				if qsValues == nil {
					qs, pq = 1500, x
				}
				w := workload.New(workload.Config{
					QS: qs, PQ: pq, Count: cfg.Queries,
					Seed: cfg.Seed + int64(wi), Domain: dataset.Domain, Centers: centers,
				})
				m, err := runWorkload(t, w)
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
