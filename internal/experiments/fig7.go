package experiments

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/updf"
)

// Fig7Row is one column group of Figure 7: Monte-Carlo accuracy and cost at
// a given sample count.
type Fig7Row struct {
	N1          int
	Err2D       float64 // workload relative error, 2D circle (r = 250)
	Err3D       float64 // workload relative error, 3D sphere (r = 125)
	CostPerComp time.Duration
}

// Fig7 reproduces Figure 7: the workload error of the monte-carlo
// evaluation (Equation 3) as a function of n1, and the time per probability
// computation. Queries have qs = 500 and intersect the uncertainty region
// to varying degrees, exactly as described in Section 6.1. The exact
// probabilities come from the pdfs' exact oracles (updf.PDF.ExactProb).
//
// n1Values defaults (nil) to 10^3..10^6; pass the paper's 10^4..10^8 for a
// full-scale run.
func Fig7(cfg Config, n1Values []int) ([]Fig7Row, error) {
	cfg = cfg.withDefaults()
	if len(n1Values) == 0 {
		n1Values = []int{1000, 10000, 100000, 1000000}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// One uncertainty region per dimensionality, paper parameters.
	obj2 := updf.NewUniformBall(geom.Point{5000, 5000}, 250)
	obj3 := updf.NewUniformBall(geom.Point{5000, 5000, 5000}, 125)

	// Queries: qs = 500 squares/cubes whose centers slide across the
	// region so intersections range from slivers to full containment.
	queries2 := overlapSweepQueries(rng, obj2.MBR(), 500, cfg.Queries)
	queries3 := overlapSweepQueries(rng, obj3.MBR(), 500, cfg.Queries)

	rows := make([]Fig7Row, 0, len(n1Values))
	for _, n1 := range n1Values {
		var row Fig7Row
		row.N1 = n1
		comps := 0
		var mcTime time.Duration
		row.Err2D = workloadError(obj2, queries2, n1, rng, &comps, &mcTime)
		row.Err3D = workloadError(obj3, queries3, n1, rng, &comps, &mcTime)
		row.CostPerComp = mcTime / time.Duration(comps)
		rows = append(rows, row)
	}

	out := cfg.Out
	fprintf(out, "Figure 7: cost of numerical (monte-carlo) evaluation\n")
	fprintf(out, "%12s %14s %14s %16s\n", "n1", "err 2D", "err 3D", "time/comp")
	for _, r := range rows {
		fprintf(out, "%12d %13.3f%% %13.3f%% %16v\n", r.N1, 100*r.Err2D, 100*r.Err3D, r.CostPerComp)
	}
	return rows, nil
}

// overlapSweepQueries builds query rectangles of side qs with centers
// spread over (and around) the region so overlap fractions vary.
func overlapSweepQueries(rng *rand.Rand, mbr geom.Rect, qs float64, count int) []geom.Rect {
	d := mbr.Dim()
	c := mbr.Center()
	span := mbr.Side(0) * 1.2
	out := make([]geom.Rect, 0, count)
	for i := 0; i < count; i++ {
		lo := make(geom.Point, d)
		hi := make(geom.Point, d)
		for k := 0; k < d; k++ {
			off := (rng.Float64() - 0.5) * span
			lo[k] = c[k] + off - qs/2
			hi[k] = lo[k] + qs
		}
		r := geom.Rect{Lo: lo, Hi: hi}
		if r.Intersects(mbr) {
			out = append(out, r)
		} else {
			i-- // only queries that actually intersect carry error signal
		}
	}
	return out
}

// workloadError computes the average relative error of monte-carlo
// estimates against the exact oracle, skipping near-zero true values (the
// paper's relative-error metric is undefined there).
func workloadError(p updf.PDF, queries []geom.Rect, n1 int, rng *rand.Rand, comps *int, mcTime *time.Duration) float64 {
	var sum float64
	var n int
	for _, rq := range queries {
		act := p.ExactProb(rq)
		if act < 1e-4 {
			continue
		}
		// Time only the monte-carlo evaluation — the cost the paper's
		// Fig. 7 annotates — not the exact oracle used for grading.
		start := time.Now()
		est := updf.MonteCarloProb(p, rq, n1, rng)
		*mcTime += time.Since(start)
		*comps++
		sum += math.Abs(act-est) / act
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Domain re-exports the dataset domain for callers printing axes.
const Domain = dataset.Domain
