package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/pagefile"
	"repro/internal/updf"
)

// The paper's conclusion lists "algorithms that deploy U-trees to solve
// other types of queries" as future work, pointing at the query taxonomy of
// Cheng et al. [4]. This file implements the expected-distance k-nearest-
// neighbor query from that taxonomy on top of the U-tree: return the k
// objects minimizing
//
//	E[dist(o, q)] = ∫ dist(x, q) · o.pdf(x) dx,
//
// using best-first tree traversal. The traversal is admissible because
// MINDIST(q, box) lower-bounds the distance to every point of any
// descendant's uncertainty region (intermediate boxes at p_1 = 0 contain
// cfb_out(0) ⊇ pcr(0) = the region MBR), and E[dist] is at least the
// minimum distance.

// NNResult is one nearest-neighbor answer.
type NNResult struct {
	ID int64
	// ExpectedDist is E[dist(o, q)].
	ExpectedDist float64
}

// NNStats reports the traversal cost.
type NNStats struct {
	NodeAccesses  int
	DistanceComps int // expected-distance evaluations (the expensive step)
	RefinementIOs int // data-page fetches; consecutive objects on one page share one

	// Decoded-node cache outcomes of this query's tree-page reads (both
	// zero when the cache is disabled).
	NodeCacheHits   int
	NodeCacheMisses int

	// BoundPruned counts frontier entries abandoned because
	// QueryOpts.MaxDist — the k-th distance of the neighbours earlier shards
	// found — proved them unable to reach the merged top k (zero outside a
	// sharded query).
	BoundPruned int

	// ShardsPruned counts whole shards skipped because the distance from q
	// to their root box exceeds that k-th distance (filled by the sharded
	// layer).
	ShardsPruned int
}

// Add accumulates o into s — the NN counterpart of QueryStats.Add, shared
// by batch aggregation and shard merging.
func (s *NNStats) Add(o NNStats) {
	s.NodeAccesses += o.NodeAccesses
	s.DistanceComps += o.DistanceComps
	s.RefinementIOs += o.RefinementIOs
	s.NodeCacheHits += o.NodeCacheHits
	s.NodeCacheMisses += o.NodeCacheMisses
	s.BoundPruned += o.BoundPruned
	s.ShardsPruned += o.ShardsPruned
}

// nnItem is a priority-queue element: either a tree node or a leaf object
// awaiting refinement.
type nnItem struct {
	lb     float64
	isNode bool
	level  uint8 // a node's: the level its page must hold (one byte on the page)
	page   pagefile.PageID
	id     int64
	addr   DataAddr
}

// nnHeap is a min-heap on lb, maintained by the typed nnPush/nnPop in
// scratch.go (which replicate container/heap's sift semantics exactly, so
// tie-breaking among equal lower bounds is unchanged from the boxed heap).
type nnHeap []nnItem

func (h nnHeap) Len() int { return len(h) }

// NearestNeighbors returns the k objects with the smallest expected
// distance to the query point q, in ascending order, against the pinned
// epoch, lock-free (the traversal keeps all its state in pooled scratch,
// and ExpectedDistance seeds a fresh sampler per object). It is the only
// NN entry point.
//
// The best-first loop checks ctx before every pop, so a cancelled
// traversal returns ctx.Err() with the (admissible but possibly
// incomplete) neighbors found so far. QueryOpts.Limit caps k.
func (s *Snapshot) NearestNeighbors(ctx context.Context, q geom.Point, k int, o QueryOpts) (best []NNResult, stats NNStats, err error) {
	t, root := s.t, s.st.rootPage
	if len(q) != t.dim {
		return nil, stats, fmt.Errorf("core: query point dim %d, tree dim %d", len(q), t.dim)
	}
	for _, c := range q {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return nil, stats, fmt.Errorf("core: query point %v is not finite", q)
		}
	}
	if k < 1 {
		return nil, stats, fmt.Errorf("core: k must be positive, got %d", k)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if o.Limit > 0 && o.Limit < k {
		k = o.Limit
	}
	var meter fetchMeter
	// finish closes the stats over the work done, on completion and on an
	// early exit alike.
	finish := func(err error) ([]NNResult, NNStats, error) {
		stats.NodeCacheHits = meter.ncHits
		stats.NodeCacheMisses = meter.ncMisses
		return best, stats, err
	}

	// Pooled frontier heap and sample buffer; the best slice escapes to
	// the caller and is never pooled. The typed nnPush/nnPop replicate
	// container/heap's sift semantics exactly, so the pop order — and
	// with it every result — is unchanged.
	sc := getScratch()
	defer sc.release()
	distBuf, box := sc.point(t.dim), sc.mbr(t.dim)
	pq := &sc.heap
	*pq = append((*pq)[:0], nnItem{lb: 0, isNode: true, level: uint8(s.st.rootLevel), page: root})

	worst := math.Inf(1)
	for pq.Len() > 0 {
		if cerr := ctx.Err(); cerr != nil {
			return finish(cerr)
		}
		it := nnPop(pq)
		if len(best) == k && it.lb >= worst {
			break // every remaining item is at least as far
		}
		if o.MaxDist > 0 && it.lb > o.MaxDist {
			// The caller's bound already proves every remaining frontier
			// entry (dist ≥ lb > bound ≥ merged k-th) out of the merged top
			// k — stop before fetching their pages. Strict > keeps distance
			// ties eligible, so (dist, ID) merge tie-breaks are unaffected.
			stats.BoundPruned += pq.Len() + 1
			break
		}
		if it.isNode {
			n, err := t.fetchNode(&meter, it.page, int(it.level))
			if err != nil {
				return finish(err)
			}
			stats.NodeAccesses++
			for i := 0; i < n.count; i++ {
				if n.leaf() {
					// A centre entry without a recentrable shape has no box
					// to bound its distance by: 0 does.
					var lb float64
					if mbr, ok := n.leafMBR(i, s.st.shapes, box); ok {
						lb = minDist(q, mbr)
					}
					addr, _ := n.addr(i)
					nnPush(pq, nnItem{lb: lb, id: n.id(i), addr: addr})
				} else {
					nnPush(pq, nnItem{
						lb:     t.innerMinDist(n, i, q),
						isNode: true,
						level:  uint8(n.level - 1),
						page:   n.child(i),
					})
				}
			}
			continue
		}
		// Leaf object: refine its expected distance. Consecutive pops are
		// spatial neighbours, which a bulk-loaded tree stores on one data
		// page, so the page the reader holds often serves the next one too.
		obj, err := sc.object(t.store, s.st.shapes, it.id, it.addr, &stats.RefinementIOs)
		if err != nil {
			return finish(err)
		}
		d := expectedDistanceScratch(obj.PDF, q, t.samples, obj.ID, distBuf)
		stats.DistanceComps++
		if len(best) < k || d < worst {
			best = insertNN(best, NNResult{ID: obj.ID, ExpectedDist: d}, k)
			worst = best[len(best)-1].ExpectedDist
			if len(best) < k {
				worst = math.Inf(1)
			}
		}
	}
	return finish(nil)
}

// insertNN inserts r into the ascending top-k list.
func insertNN(best []NNResult, r NNResult, k int) []NNResult {
	pos := sort.Search(len(best), func(i int) bool {
		return best[i].ExpectedDist > r.ExpectedDist
	})
	best = append(best, NNResult{})
	copy(best[pos+1:], best[pos:])
	best[pos] = r
	if len(best) > k {
		best = best[:k]
	}
	return best
}

// MinDist exposes the traversal's MINDIST for the sharded layer's NN shard
// ordering (visit shards nearest root box first, so the k-th distance that
// bounds the later ones shrinks early).
func MinDist(q geom.Point, rect geom.Rect) float64 { return minDist(q, rect) }

// minDist is the classic MINDIST: the distance from q to the nearest point
// of rect (0 when q is inside).
func minDist(q geom.Point, rect geom.Rect) float64 {
	var s float64
	for i := range q {
		var d float64
		if q[i] < rect.Lo[i] {
			d = rect.Lo[i] - q[i]
		} else if q[i] > rect.Hi[i] {
			d = q[i] - rect.Hi[i]
		}
		s += d * d
	}
	return math.Sqrt(s)
}

// ExpectedDistance evaluates E[dist(X, q)] by pdf-weighted Monte Carlo with
// a deterministic seed derived from the object id, so repeated evaluations
// (and brute-force oracles in tests) agree exactly.
func ExpectedDistance(p updf.PDF, q geom.Point, samples int, seed int64) float64 {
	return expectedDistanceScratch(p, q, samples, seed, nil)
}

// expectedDistanceScratch is ExpectedDistance writing samples into the
// caller's scratch point (allocated fresh when nil or mis-sized) and drawing
// from a pooled sampler. (*Rand).Seed reproduces exactly the sequence
// rand.New(rand.NewSource(seed)) draws, so values match ExpectedDistance's
// historical output bit for bit.
func expectedDistanceScratch(p updf.PDF, q geom.Point, samples int, seed int64, x geom.Point) float64 {
	if samples <= 0 {
		samples = 10000
	}
	rng := getSeededRand(seed*1099511628211 + 14695981039346656037>>32)
	defer putRand(rng)
	if len(x) != p.Dim() {
		x = make(geom.Point, p.Dim())
	}
	var num, den float64
	for i := 0; i < samples; i++ {
		p.SampleUniform(rng, x)
		w := p.Density(x)
		if w == 0 {
			continue
		}
		den += w
		num += w * x.Dist(q)
	}
	if den == 0 {
		// Degenerate pdf: fall back to the distance to the region center.
		return p.Center().Dist(q)
	}
	return num / den
}
