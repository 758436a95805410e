package core

import (
	"math/rand"

	"repro/internal/geom"
	"repro/internal/pcr"
	"repro/internal/updf"
)

// Scan is the no-index baseline of Section 5's opening: objects (with
// pre-computed CFBs) inspected sequentially, filtered with Observation 3,
// and refined when needed. It doubles as the ground-truth oracle in tests
// when exact refinement is enabled.
type Scan struct {
	cat     pcr.Catalog
	objects []scanItem
	samples int
	exact   bool
	rng     *rand.Rand
}

type scanItem struct {
	obj Object
	mbr geom.Rect
	out pcr.CFB
	in  pcr.CFB
}

// NewScan builds a sequential-scan baseline over the given objects with the
// given catalog size.
func NewScan(objects []Object, catalogSize int, samples int, exact bool, seed int64) *Scan {
	cat := pcr.UniformCatalog(catalogSize)
	cache := pcr.NewQuantileCache()
	s := &Scan{cat: cat, samples: samples, exact: exact, rng: rand.New(rand.NewSource(seed))}
	for _, o := range objects {
		pcrs := pcr.Compute(o.PDF, cat, cache)
		s.objects = append(s.objects, scanItem{
			obj: o,
			mbr: o.PDF.MBR(),
			out: pcr.FitOut(pcrs),
			in:  pcr.FitIn(pcrs),
		})
	}
	return s
}

// RangeQuery answers a prob-range query by full scan. Stats report the
// number of probability computations avoided by the CFB filter.
func (s *Scan) RangeQuery(q Query) ([]Result, QueryStats, error) {
	var stats QueryStats
	var results []Result
	for i := range s.objects {
		it := &s.objects[i]
		switch pcr.FilterCFB(it.out, it.in, s.cat, it.mbr, q.Rect, q.Prob) {
		case pcr.Validated:
			results = append(results, Result{ID: it.obj.ID, Prob: -1, Validated: true})
			stats.Validated++
		case pcr.PrunedByBound:
			stats.ProbFilterPruned++
		case pcr.Unknown:
			stats.Candidates++
			p := s.prob(it.obj.PDF, q.Rect)
			stats.ProbComputations++
			if p >= q.Prob {
				results = append(results, Result{ID: it.obj.ID, Prob: p})
			}
		}
	}
	stats.Results = len(results)
	return results, stats, nil
}

// BruteForce computes the exact result set with no filtering at all (every
// object's probability evaluated) — the slowest, most trustworthy oracle.
func (s *Scan) BruteForce(q Query) []Result {
	var results []Result
	for i := range s.objects {
		it := &s.objects[i]
		if p := s.prob(it.obj.PDF, q.Rect); p >= q.Prob {
			results = append(results, Result{ID: it.obj.ID, Prob: p})
		}
	}
	return results
}

// prob is Equation 2, exact or by the scan's Monte Carlo sampler.
func (s *Scan) prob(p updf.PDF, rq geom.Rect) float64 {
	if s.exact {
		return p.ExactProb(rq)
	}
	return updf.MonteCarloProb(p, rq, s.samples, s.rng)
}
