package pcr

import (
	"repro/internal/geom"
	"repro/internal/updf"
)

// Outcome is the result of applying prune/validate rules to one object.
type Outcome int

const (
	// Unknown means neither pruning nor validation applied: the object is a
	// candidate whose appearance probability must be computed.
	Unknown Outcome = iota
	// Pruned means the object cannot satisfy the query.
	Pruned
	// Validated means the object is guaranteed to satisfy the query.
	Validated
	// PrunedByBound is Pruned decided by the probability upper bound after
	// Rules 1–2 passed the object; it is reported apart so callers can
	// count what the bound adds to the paper's rules.
	PrunedByBound
)

// String implements fmt.Stringer for diagnostics.
func (o Outcome) String() string {
	switch o {
	case Pruned:
		return "pruned"
	case Validated:
		return "validated"
	case PrunedByBound:
		return "pruned-by-bound"
	default:
		return "unknown"
	}
}

// decide turns the two-sided probability bound into an outcome: lb at the
// threshold validates, ub below it prunes. Validation carries catalogEps
// because Rules 3–5, which this replaces, matched thresholds to catalog
// values with that tolerance (p_q = 0.9 against p_j = 0.1 must validate);
// it needs lb > 0 as well, or at a threshold below catalogEps an object
// the query cannot reach would validate on its zero bound.
func decide(lb, ub, pq float64) Outcome {
	switch {
	case lb >= pq-catalogEps && lb > 0:
		return Validated
	case ub < pq-boundPruneEps:
		return PrunedByBound
	}
	return Unknown
}

// FilterCatalogPCR applies Observation 2's pruning (Rule 1 or 2) with the
// finite-catalog PCRs of a U-PCR leaf entry, then the two-sided probability
// bound, whose lower half subsumes the paper's validating Rules 3–5. mbr is
// the MBR of the uncertainty region.
func FilterCatalogPCR(pcrs PCRs, mbr, rq geom.Rect, pq float64) Outcome {
	if o, ok := filterMBR(mbr, rq); ok {
		return o
	}
	cat := pcrs.Cat
	if pq > 1-cat.Max() {
		// Rule 1: p_j = smallest catalog value ≥ 1−pq.
		if j, ok := cat.SmallestGE(1 - pq); ok && !rq.Contains(pcrs.Boxes[j]) {
			return Pruned
		}
	} else {
		// Rule 2: p_j = largest catalog value ≤ pq.
		if j, ok := cat.LargestLE(pq); ok && !rq.Intersects(pcrs.Boxes[j]) {
			return Pruned
		}
	}
	lb, ub := ProbBoundsPCR(pcrs, rq)
	return decide(lb, ub, pq)
}

// filterMBR decides what the region MBR decides alone: an object rq misses
// is pruned, one it contains validated.
func filterMBR(mbr, rq geom.Rect) (Outcome, bool) {
	switch {
	case !rq.Intersects(mbr):
		return Pruned, true
	case rq.Contains(mbr):
		return Validated, true
	}
	return Unknown, false
}

// FilterCFB applies Observation 3 to a stored cfb_out/cfb_in pair (an
// unkeyed U-tree leaf entry): Faces.Filter on its faces, read off the pair
// only where the MBR leaves the entry undecided.
func FilterCFB(out, in CFB, cat Catalog, mbr, rq geom.Rect, pq float64) Outcome {
	if o, ok := filterMBR(mbr, rq); ok {
		return o
	}
	var buf [facesStack]line
	return Faces(buf[:0]).stored(out, in).rules(cat, mbr, rq, pq)
}

// Filter is Faces.Filter on the faces Translate gives the entry of this
// shape with region MBR mbr, translated into f only where the MBR leaves the
// entry undecided.
func (s *Shape) Filter(f *Faces, mbr, rq geom.Rect, pq float64) Outcome {
	if o, ok := filterMBR(mbr, rq); ok {
		return o
	}
	s.Translate(f, mbr)
	return f.rules(s.cat, mbr, rq, pq)
}

// Filter applies Observation 3: FilterCatalogPCR with the PCRs replaced by
// the conservative functional boxes of a U-tree leaf entry — cfb_in for the
// containment prune (Rule 1), cfb_out for the intersection prune (Rule 2),
// both for the probability bound. mbr is the MBR of the uncertainty region.
func (f Faces) Filter(cat Catalog, mbr, rq geom.Rect, pq float64) Outcome {
	if o, ok := filterMBR(mbr, rq); ok {
		return o
	}
	return f.rules(cat, mbr, rq, pq)
}

// rules is Filter past the MBR tests.
func (f Faces) rules(cat Catalog, mbr, rq geom.Rect, pq float64) Outcome {
	if pq > 1-cat.Max() {
		// Rule 1 with cfb_in (contained in pcr, so "rq fails to contain"
		// transfers).
		if j, ok := cat.SmallestGE(1 - pq); ok && !f.within(cat.Value(j), rq) {
			return Pruned
		}
	} else {
		// Rule 2 with cfb_out (contains pcr, so "rq misses" transfers).
		if j, ok := cat.LargestLE(pq); ok && !f.meets(cat.Value(j), rq) {
			return Pruned
		}
	}
	lb, ub := f.ProbBounds(cat, mbr, rq)
	return decide(lb, ub, pq)
}

// FilterMarginal decides a refinement candidate from its decoded pdf, of
// shape s (nil for none), before anything is integrated: Validated when the
// marginal lower bound reaches pq, PrunedByBound when the upper bound falls
// short of it, Unknown when the threshold lies between the two and
// Equation 2 has to be evaluated. Both tests carry boundPruneEps, so an
// evaluator good to 1e-10 agrees with every decision taken here. A radial
// pdf the first-order bounds leave undecided — a ball rq cuts at a corner
// — is tested again with the pair terms, which reuse its tails.
func FilterMarginal(p updf.PDF, rq geom.Rect, pq float64, s *Shape) Outcome {
	var m marginal
	m.read(p, rq, s)
	return m.decide(pq, false)
}

// FilterMarginal is FilterMarginal before the record of the object of this
// shape with region MBR mbr is read, pair terms included: FilterMarginal
// confirms whatever it decides.
func (s *Shape) FilterMarginal(mbr, rq geom.Rect, pq float64) Outcome {
	var m marginal
	m.readShape(s, mbr, rq)
	return m.decide(pq, true)
}

// decide tests the first-order bracket against pq and, where that leaves
// the candidate Unknown and the pdf is radial, the one with the pair terms;
// atLeaf widens each by boundPruneEps.
func (m *marginal) decide(pq float64, atLeaf bool) Outcome {
	t := &threshold{pq, atLeaf}
	if o := t.outcome(m.result()); o != Unknown || m.radial == nil {
		return o
	}
	return t.outcome(m.pairs(t))
}

// threshold is the test a filter puts to a bracket: Validated where lb
// reaches pq + boundPruneEps, PrunedByBound where ub falls short of pq −
// boundPruneEps, on the bracket as it stands or, at the leaf, widened by
// boundPruneEps first.
type threshold struct {
	pq   float64
	leaf bool
}

func (t *threshold) outcome(lb, ub float64) Outcome {
	switch {
	case t.validates(lb):
		return Validated
	case t.prunes(ub):
		return PrunedByBound
	}
	return Unknown
}

// validates reports whether a bracket with lower end lb validates.
func (t *threshold) validates(lb float64) bool {
	if t.leaf {
		lb = max(lb-boundPruneEps, 0)
	}
	return lb >= t.pq+boundPruneEps
}

// prunes reports whether a bracket with upper end ub prunes, where its
// lower end does not validate.
func (t *threshold) prunes(ub float64) bool {
	if t.leaf {
		ub = min(ub+boundPruneEps, 1)
	}
	return ub < t.pq-boundPruneEps
}
