package core

import (
	"repro/internal/geom"
	"repro/internal/pcr"
)

// Scan is the no-index baseline of Section 5's opening: objects (with
// pre-computed CFBs) inspected sequentially, filtered with Observation 3,
// and refined by Equation 2 when needed. It doubles as the ground-truth
// oracle in tests.
type Scan struct {
	cat     pcr.Catalog
	objects []scanItem
}

type scanItem struct {
	obj Object
	mbr geom.Rect
	out pcr.CFB
	in  pcr.CFB
}

// NewScan builds a sequential-scan baseline over the given objects with the
// given catalog size.
func NewScan(objects []Object, catalogSize int) *Scan {
	cat := pcr.UniformCatalog(catalogSize)
	cache := pcr.NewQuantileCache()
	s := &Scan{cat: cat}
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
			p := it.obj.PDF.ExactProb(q.Rect)
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
		if p := it.obj.PDF.ExactProb(q.Rect); p >= q.Prob {
			results = append(results, Result{ID: it.obj.ID, Prob: p})
		}
	}
	return results
}
