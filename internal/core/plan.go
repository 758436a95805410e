package core

import (
	"context"
	"fmt"

	"repro/internal/pagefile"
)

// This file is the per-query execution plan behind the context-first query
// API: both query entry points (Snapshot.RangeQuery and
// Snapshot.NearestNeighbors) resolve a QueryOpts against the tree's
// configuration once, up front, into an immutable qplan that the traversal
// then consults — no global mutator needs to run, and two concurrent
// queries on one tree can use different refinement precision or result
// limits.

// QueryOpts carries per-query overrides of the tree's configured query
// behavior. The zero value means "inherit everything" and reproduces the
// tree's configured behavior bit for bit.
type QueryOpts struct {
	// MCSamples overrides Options.MCSamples for this query's Monte Carlo
	// refinement when > 0.
	MCSamples int
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
}

// qplan is a QueryOpts resolved against the tree's configuration: every
// field is concrete, nothing is inherited at use sites.
type qplan struct {
	ctx     context.Context
	samples int
	exact   bool
	limit   int
	// maxDist is QueryOpts.MaxDist (0 = no bound).
	maxDist float64
	// noShapeTest refines every candidate from its record, as before the
	// shape table; only tests set it, to compare the two.
	noShapeTest bool
}

// resolvePlan merges o over the tree's configured defaults. With a zero
// QueryOpts the plan reproduces the tree's configuration exactly, which is
// what keeps default-option queries byte-identical to the pre-plan code.
func (t *Tree) resolvePlan(ctx context.Context, o QueryOpts) qplan {
	if ctx == nil {
		ctx = context.Background()
	}
	p := qplan{
		ctx:     ctx,
		samples: t.samples,
		exact:   t.exact,
		limit:   o.Limit,
		maxDist: o.MaxDist,
	}
	if o.MCSamples > 0 {
		p.samples = o.MCSamples
	}
	return p
}

// limitReached reports whether a range query holding n results must stop.
func (p *qplan) limitReached(n int) bool { return p.limit > 0 && n >= p.limit }

// fetchMeter tallies a query's decoded-node cache outcomes (threaded into
// QueryStats/NNStats by the traversals).
type fetchMeter struct {
	ncHits   int // decoded-node cache hits this query
	ncMisses int // decoded-node cache misses this query (cache enabled only)
}

// fetchNode reads the tree page a descent expects at level. The
// decoded-node cache is consulted first: a hit costs no I/O and no decode —
// the node is returned shared (the traversals only read it). On a miss the
// node is decoded fresh and, when its page is committed, offered to the
// cache.
func (t *Tree) fetchNode(m *fetchMeter, id pagefile.PageID, level int) (*packedNode, error) {
	if t.ncache != nil {
		if n, ok := t.ncache.get(id); ok {
			t.nodeReads.Add(1) // still one logical node access
			m.ncHits++
			if err := t.checkLevel(n, level); err != nil {
				return nil, err
			}
			return n, nil
		}
		m.ncMisses++
	}
	n, err := t.readPacked(id)
	if err != nil {
		return nil, err
	}
	if err := t.checkLevel(n, level); err != nil {
		return nil, err
	}
	t.maybeCacheNode(n)
	return n, nil
}

// checkLevel refuses a node found where the descent needs another level —
// a child pointer that leads back up the tree would otherwise loop a query
// for ever. The page is corrupt as reached. Levels fall by one a step, so
// with this check every descent ends.
func (t *Tree) checkLevel(n *packedNode, level int) error {
	if n.level == level {
		return nil
	}
	return fmt.Errorf("core: corrupt node %d: %w", n.page, &pagefile.BadPageError{
		Page:   n.page,
		Reason: fmt.Sprintf("level %d where its parent needs %d", n.level, level),
	})
}
