package core

import (
	"repro/internal/geom"
	"repro/internal/pcr"
)

// Scan is the no-index baseline of Section 5's opening: objects inspected
// sequentially, filtered with Observation 3 on the faces a U-tree leaf
// entry gives them — an object with a ShapeKey its shape's, translated, the
// first object of the key the prototype as in a tree's shape table; one
// without, its own float32 CFBs — and refined by Equation 2 when needed. It
// doubles as the ground-truth oracle in tests.
type Scan struct {
	cat     pcr.Catalog
	objects []scanItem
}

type scanItem struct {
	obj   Object
	mbr   geom.Rect
	faces pcr.Faces
}

// NewScan builds a sequential-scan baseline over the given objects with the
// given catalog size.
func NewScan(objects []Object, catalogSize int) *Scan {
	cat := pcr.UniformCatalog(catalogSize)
	shapes := make(map[string]*pcr.Shape)
	s := &Scan{cat: cat}
	for _, o := range objects {
		it := scanItem{obj: o, mbr: o.PDF.MBR()}
		if key := o.PDF.ShapeKey(); key != "" {
			if shapes[key] == nil {
				shapes[key] = pcr.NewShape(o.PDF, cat)
			}
			shapes[key].Translate(&it.faces, it.mbr)
		} else {
			pcrs := pcr.Compute(o.PDF, cat, nil)
			it.faces.SetCFB(pcr.FitOut(pcrs), pcr.FitIn(pcrs))
		}
		s.objects = append(s.objects, it)
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
		switch it.faces.Filter(s.cat, it.mbr, q.Rect, q.Prob) {
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
