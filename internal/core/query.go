package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/geom"
	"repro/internal/pcr"
)

// Query is a probabilistic range query: find objects appearing in Rect with
// probability at least Prob.
type Query struct {
	Rect geom.Rect
	Prob float64
}

// QueryOpts carries a query's own limits. The zero value reproduces the
// tree's configured behavior bit for bit; the k-NN sample count is the
// tree's (Options.MCSamples), not a query's.
type QueryOpts struct {
	// Limit stops a range query after this many results (0 = unlimited);
	// for NN queries it caps k. The cut is deterministic: results arrive in
	// the serial traversal order, so a limited query returns a prefix of
	// the unlimited query's result sequence.
	Limit int
	// MaxDist, when > 0, bounds an NN query from above: the k-th smallest
	// expected distance the neighbours of earlier shards already reach. The
	// traversal stops once its heap's lower bound exceeds it, since nothing
	// farther can enter the merged top k. 0 means no bound. Range queries
	// ignore it.
	MaxDist float64
	// noShapeTest refines every candidate from its record, as before the
	// shape table; only tests set it, to compare the two.
	noShapeTest bool
}

// limitReached reports whether a range query holding n results must stop.
func (o QueryOpts) limitReached(n int) bool { return o.Limit > 0 && n >= o.Limit }

// Result is one qualifying object.
type Result struct {
	ID int64
	// Prob is the appearance probability when it was computed during
	// refinement; for validated objects it is set to -1 (the whole point of
	// the index is not computing it).
	Prob float64
	// Validated reports whether the object was reported without probability
	// computation: rq contains its MBR, or a lower bound on its
	// qualification probability already reaches the threshold — derived
	// from its PCR/CFB faces at the leaf (pcr.Faces.ProbBounds /
	// ProbBoundsPCR), or from its pdf's own marginals, at the leaf through
	// its shape or after its record was read (pcr.Shape.ProbBoundsMarginal /
	// pcr.ProbBoundsMarginal).
	Validated bool
}

// QueryStats reports the cost metrics of one query, matching the paper's
// plots: node accesses (Fig. 9/10 left column), number of appearance
// probability computations and directly-validated percentage (middle
// column), and refinement I/Os.
//
// The stages keep their own counters. Validated and ProbFilterPruned are
// decided at the leaf from the stored faces, before any record is read;
// Candidates is what the stored faces could not decide — the paper's
// "probability computations", and the like-for-like column against its
// Fig. 9–10. On a query that ran to completion Candidates =
// MarginalValidated + MarginalPruned + ProbComputations: decided on the
// pdf's own marginals, or integrated. Only the ShapeDecided of them that were
// decided at the leaf, on the object's shape, had no record read.
type QueryStats struct {
	NodeAccesses int // tree pages visited
	// QuantilePruned counts the subtrees the descent cut because no object
	// in them can reach the threshold on its shape's quantiles, where
	// Observation 4 let them pass (innerReaches): each one's pages are
	// node accesses that never happened.
	QuantilePruned   int
	LeafAccesses     int
	Candidates       int // leaf entries the stored faces left undecided
	ProbComputations int // candidates whose appearance probability was integrated (Equation 2)
	Validated        int // results reported from the leaf entry alone (MBR containment or probability lower bound)
	RefinementIOs    int // distinct data pages fetched
	Results          int
	FilterTime       time.Duration
	RefineTime       time.Duration

	// Decoded-node cache outcomes of this query's tree-page reads (both
	// zero when the cache is disabled): a hit skipped the page read and the
	// node decode entirely.
	NodeCacheHits   int
	NodeCacheMisses int

	// ProbFilterPruned counts leaf entries that passed the paper's pruning
	// Rules 1–2 and were discarded by the probability upper bound instead
	// (pcr.PrunedByBound) — each one is a probability computation and
	// possibly a data-page read that never happened.
	ProbFilterPruned int

	// MarginalValidated and MarginalPruned count candidates decided before
	// anything was integrated, by the bounds the pdf's own marginals give —
	// for a ball, tightened by the radial pair terms where a query cuts it
	// at a corner: reported with Prob = -1, and dropped. ShapeDecided of
	// them were decided before their record was read, on the shape their
	// leaf entry names (pcr.Shape.FilterMarginal); the rest, whose entries
	// name no shape, after it (pcr.FilterMarginal).
	MarginalValidated int
	MarginalPruned    int
	ShapeDecided      int

	// ShardsPruned counts whole shards skipped by root-MBR pruning in a
	// sharded query (always zero for a single tree; filled by the sharded
	// layer).
	ShardsPruned int
}

// Add accumulates o into s, field by field. It is the single merge point
// for query-cost aggregation — batch engines summing per-query stats and
// sharded indexes merging per-shard stats both go through it, so a new
// QueryStats field only needs its merge rule stated here.
func (s *QueryStats) Add(o QueryStats) {
	s.NodeAccesses += o.NodeAccesses
	s.QuantilePruned += o.QuantilePruned
	s.LeafAccesses += o.LeafAccesses
	s.Candidates += o.Candidates
	s.ProbComputations += o.ProbComputations
	s.Validated += o.Validated
	s.RefinementIOs += o.RefinementIOs
	s.Results += o.Results
	s.FilterTime += o.FilterTime
	s.RefineTime += o.RefineTime
	s.NodeCacheHits += o.NodeCacheHits
	s.NodeCacheMisses += o.NodeCacheMisses
	s.ProbFilterPruned += o.ProbFilterPruned
	s.MarginalValidated += o.MarginalValidated
	s.MarginalPruned += o.MarginalPruned
	s.ShapeDecided += o.ShapeDecided
	s.ShardsPruned += o.ShardsPruned
}

// RangeQuery executes a prob-range query (Section 5.2) against the pinned
// epoch, lock-free: Observation 4 pruning during the descent, and on the
// objects' quantiles where every entry is keyed (entry.go), Observation 3
// (U-tree) or Observation 2 (U-PCR) filtering at leaves, then refinement of
// surviving candidates, fetching each distinct data page once: a candidate
// is validated or dropped on its pdf's marginals where they decide it — at
// the leaf through its shape (pcr.Shape.FilterMarginal), else once its
// record is read (pcr.FilterMarginal) — and has its appearance probability
// (Equation 2, PDF.ExactProb) computed where they do not. It is the only
// range entry point — a single-threaded caller commits and pins a snapshot
// like everyone else.
//
// The traversal checks ctx before every page fetch and every refinement
// integration, so a cancelled query returns ctx.Err() within roughly one
// page read of the cancellation. Refinement draws no samples, so an answer
// depends on the query and the epoch alone.
func (s *Snapshot) RangeQuery(ctx context.Context, q Query, o QueryOpts) ([]Result, QueryStats, error) {
	return s.t.rangeQuery(ctx, s.st, q, o)
}

// rangeQuery is the traversal behind Snapshot.RangeQuery: a level-batched
// descent (Observation 4 and quantile pruning), Observation 3/2 filtering
// at the leaves, then refinement of the surviving candidates. A nil ctx
// means context.Background().
//
// The descent processes one level's surviving nodes per round, in
// discovery order; candidates are refined in (page, slot) order.
//
// Cancellation is checked before every page fetch and every refinement
// integration; a cancelled query returns ctx.Err() with the partial
// results and stats gathered so far. A result limit cuts the query once that
// many results exist.
func (t *Tree) rangeQuery(ctx context.Context, st *treeState, q Query, o QueryOpts) (results []Result, stats QueryStats, err error) {
	if err := validateQuery(t.dim, q); err != nil {
		return nil, stats, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()

	var meter fetchMeter
	// finish closes the stats over the work actually done — on completion
	// and on a cancelled exit alike, where the results so far are still
	// valid answers.
	finish := func(err error) ([]Result, QueryStats, error) {
		stats.Results = len(results)
		stats.NodeCacheHits = meter.ncHits
		stats.NodeCacheMisses = meter.ncMisses
		return results, stats, err
	}

	// p_j for Observation 4: largest catalog value ≤ p_q (always exists
	// since p_1 = 0).
	jDescend, _ := t.cat.LargestLE(q.Prob)
	up, down := t.quantileBounds(st, q.Prob)

	// Pooled traversal scratch: the two descent-level buffers (swapped per
	// round instead of reallocated) and the candidate list. The results
	// slice escapes to the caller and is never pooled. Append order is
	// unchanged, so results stay byte-identical to the unpooled path.
	sc := getScratch()
	frontier := append(sc.frontier[:0], st.rootPage)
	next := sc.next[:0]
	cands := sc.cands[:0]
	defer func() {
		// Hand the (possibly grown) buffers back before releasing.
		sc.frontier, sc.next, sc.cands = frontier, next, cands
		sc.release()
	}()
	// The descent's level: the root's, one less each round.
	level := st.rootLevel
descent:
	for ; len(frontier) > 0; level-- {
		next = next[:0]
		for _, page := range frontier {
			if cerr := ctx.Err(); cerr != nil {
				return finish(cerr)
			}
			if o.limitReached(len(results)) {
				break descent
			}
			n, err := t.fetchNode(&meter, page, level)
			if err != nil {
				return finish(err)
			}
			stats.NodeAccesses++
			if !n.leaf() {
				for i := 0; i < n.count; i++ {
					// Observation 4: the subtree cannot contain results if rq
					// misses e.MBR(p_j); nor if no object's quantiles reach
					// rq's faces.
					switch {
					case !t.innerMeets(n, i, q.Rect, jDescend):
					case up != nil && !innerReaches(n, i, q.Rect, up, down):
						stats.QuantilePruned++
					default:
						next = append(next, n.child(i))
					}
				}
				continue
			}
			stats.LeafAccesses++
			for i := 0; i < n.count; i++ {
				c, outcome := sc.decide(t, st.shapes, n, i, q, o.noShapeTest)
				switch outcome {
				case pcr.Validated:
					results = append(results, Result{ID: c.id, Prob: -1, Validated: true})
					stats.Validated++
					if o.limitReached(len(results)) {
						break descent
					}
				case pcr.PrunedByBound:
					stats.ProbFilterPruned++
				case pcr.Unknown:
					cands = append(cands, c)
				}
			}
		}
		frontier, next = next, frontier
	}
	stats.Candidates = len(cands)
	stats.FilterTime = time.Since(start)

	// Refinement: group candidates by data page (one I/O per page with a
	// candidate still undecided).
	refineStart := time.Now()
	slices.SortFunc(cands, func(a, b candidate) int {
		return cmp.Or(cmp.Compare(a.addr.Page, b.addr.Page), cmp.Compare(a.addr.Slot, b.addr.Slot))
	})
	// refined ends the stage, on completion and on every early exit of the
	// loop below alike.
	refined := func(err error) ([]Result, QueryStats, error) {
		stats.RefineTime = time.Since(refineStart)
		return finish(err)
	}
	for _, c := range cands {
		if cerr := ctx.Err(); cerr != nil {
			return refined(cerr)
		}
		if o.limitReached(len(results)) {
			break
		}
		// The pdf's own marginals bound the probability far more tightly
		// than the stored faces could; only a candidate they leave undecided
		// — at the leaf, else with the record in hand — is integrated. The
		// record of a candidate its leaf tested is not tested again: the
		// leaf's bracket holds the record's to within δ and boundPruneEps,
		// so the record could decide only a threshold inside that sliver.
		outcome, obj := c.decided, Object{ID: c.id}
		if outcome != pcr.Unknown {
			stats.ShapeDecided++
		} else {
			if obj, err = sc.object(t.store, st.shapes, c.id, c.addr, &stats.RefinementIOs); err != nil {
				return refined(err)
			}
			// An unkeyed object has no shape to hold tables, so its
			// marginals are evaluated (and a 2-D uniform ball's corner
			// masses at the knots a table would hold, so it is decided as
			// it would be keyed).
			if c.ref == 0 {
				outcome = pcr.FilterMarginal(obj.PDF, q.Rect, q.Prob, nil)
			} else if o.noShapeTest {
				outcome = pcr.FilterMarginal(obj.PDF, q.Rect, q.Prob, st.shapes[c.ref-1].fit)
			}
		}
		switch outcome {
		case pcr.Validated:
			results = append(results, Result{ID: obj.ID, Prob: -1, Validated: true})
			stats.MarginalValidated++
		case pcr.PrunedByBound:
			stats.MarginalPruned++
		default:
			p := obj.PDF.ExactProb(q.Rect) // Equation 2
			stats.ProbComputations++
			if p >= q.Prob {
				results = append(results, Result{ID: obj.ID, Prob: p})
			}
		}
	}
	return refined(nil)
}

// quantileBounds returns the quantile test's bounds at pq's levels, D⁺(a)
// and D⁻(b) one per dimension (entry.go), read off the epoch's table; nil
// where the test does not hold: a U-PCR, or a tree with an unshaped leaf
// entry.
func (t *Tree) quantileBounds(st *treeState, pq float64) (up, down []float64) {
	n := len(st.shapes)
	if t.kind != UTree || st.unshaped != 0 || n == 0 {
		return nil, nil
	}
	a, b := t.cat.QuantileLevels(pq)
	return st.shapes[n-1].up[a*t.dim : (a+1)*t.dim], st.shapes[n-1].down[b*t.dim : (b+1)*t.dim]
}

func validateQuery(dim int, q Query) error {
	if q.Rect.Dim() != dim {
		return fmt.Errorf("core: query dim %d, tree dim %d", q.Rect.Dim(), dim)
	}
	if !q.Rect.IsValid() {
		return fmt.Errorf("core: invalid query rectangle %v", q.Rect)
	}
	if !(q.Prob > 0 && q.Prob <= 1) { // NaN fails both
		return fmt.Errorf("core: query probability %g outside (0, 1]", q.Prob)
	}
	return nil
}
