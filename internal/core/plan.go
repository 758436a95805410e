package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/pagefile"
)

// This file is the per-query execution plan behind the context-first query
// API: both query entry points (Snapshot.RangeQuery and
// Snapshot.NearestNeighbors) resolve a QueryOpts against the tree's
// configuration once, up front, into an immutable qplan that the traversal
// then consults — no global mutator needs to run, and two concurrent
// queries on one tree can use different refinement precision, result limits
// or I/O budgets.

// ErrBudgetExceeded is returned by a query whose QueryOpts.PageBudget ran
// out: the traversal performed exactly the budgeted number of physical
// page fetches and then stopped, returning the results and stats gathered
// so far. Test with errors.Is; the partial results are still valid answers
// (every returned object truly qualifies), the set is just incomplete.
var ErrBudgetExceeded = errors.New("core: page budget exceeded")

// QueryOpts carries per-query overrides of the tree's configured query
// behavior. The zero value means "inherit everything" and reproduces the
// tree's configured behavior bit for bit.
type QueryOpts struct {
	// MCSamples overrides Options.MCSamples for this query's Monte Carlo
	// refinement when > 0.
	MCSamples int
	// Exact overrides Options.ExactRefinement when ExactSet is true.
	ExactSet bool
	Exact    bool
	// Limit stops a range query after this many results (0 = unlimited);
	// for NN queries it caps k. The cut is deterministic: results arrive in
	// the serial traversal order, so a limited query returns a prefix of
	// the unlimited query's result sequence.
	Limit int
	// PageBudget bounds the physical page fetches (buffer-pool misses plus
	// data-page reads) the query may perform; 0 = unlimited. When the
	// budget runs out the query returns ErrBudgetExceeded with the partial
	// results and stats gathered so far.
	PageBudget int
	// AllowDegraded opts a scatter-gather query into partial answers when
	// some (not all) shards fail with a storage error: the healthy shards'
	// results are returned together with a typed degraded-mode error. The
	// core traversal itself ignores the flag — a single tree has no
	// healthy remainder to serve — it is consumed by the sharded layer.
	AllowDegraded bool
	// NNBound, when non-nil, is a shared upper bound on the k-th smallest
	// expected distance for an NN query — the cross-shard frontier of a
	// scatter-gather: the traversal stops once its heap's lower bound
	// exceeds it, and publishes its own k-th best into it. Range queries
	// ignore it.
	NNBound *NNBound
}

// qplan is a QueryOpts resolved against the tree's configuration: every
// field is concrete, nothing is inherited at use sites.
type qplan struct {
	ctx     context.Context
	samples int
	exact   bool
	limit   int
	budget  int
	// nnBound is the shared cross-shard k-th distance bound (nil outside
	// sharded NN scatter-gather).
	nnBound *NNBound
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
		budget:  o.PageBudget,
		nnBound: o.NNBound,
	}
	if o.MCSamples > 0 {
		p.samples = o.MCSamples
	}
	if o.ExactSet {
		p.exact = o.Exact
	}
	return p
}

// limitReached reports whether a range query holding n results must stop.
func (p *qplan) limitReached(n int) bool { return p.limit > 0 && n >= p.limit }

// fetchMeter charges physical page fetches against a query's page budget
// and tallies the query's decoded-node cache outcomes (threaded into
// QueryStats/NNStats by the traversals).
type fetchMeter struct {
	budget   int // 0 = unlimited
	spent    int
	ncHits   int // decoded-node cache hits this query
	ncMisses int // decoded-node cache misses this query (cache enabled only)
}

// chargeData reserves one data-page read (always physical: data pages
// bypass the buffer pool).
func (m *fetchMeter) chargeData() error {
	if m.budget > 0 && m.spent >= m.budget {
		return ErrBudgetExceeded
	}
	m.spent++
	return nil
}

// fetchNode reads the tree page a descent expects at level under the
// meter. The decoded-node cache is consulted first: a hit costs no I/O, no
// decode and no budget — the node is returned shared (the traversals only
// read it). On a miss the node is decoded fresh and, when its page is
// committed, offered to the cache. When the budget is armed, a fetch that
// would have to touch storage past the budget is refused before any I/O
// happens, and actual misses are charged.
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
	if m.budget > 0 && m.spent >= m.budget && !t.pool.Contains(id) {
		return nil, ErrBudgetExceeded
	}
	n, miss, err := t.readNodeMiss(id)
	if err != nil {
		return nil, err
	}
	if err := t.checkLevel(n, level); err != nil {
		return nil, err
	}
	t.maybeCacheNode(n)
	if miss && m.budget > 0 {
		m.spent++
		if m.spent > m.budget {
			// A concurrent eviction turned the predicted hit into a miss
			// after the budget was spent; stop now so the overshoot is
			// bounded at one fetch (impossible for a query running alone,
			// where Contains' answer holds).
			return nil, ErrBudgetExceeded
		}
	}
	return n, nil
}

// checkLevel refuses a node found where the descent needs another level —
// a child pointer that leads back up the tree would otherwise loop a query
// for ever. The page is corrupt as reached, and quarantined. Levels fall by
// one a step, so with this check every descent ends.
func (t *Tree) checkLevel(n *packedNode, level int) error {
	if n.level == level {
		return nil
	}
	return t.noteReadError(n.page, fmt.Errorf("core: corrupt node %d: %w", n.page, &pagefile.BadPageError{
		Page:   n.page,
		Reason: fmt.Sprintf("level %d where its parent needs %d", n.level, level),
	}))
}

// fetchDataPage reads a data page under the meter (see fetchNode).
// Quarantined pages fast-fail; a read that proves corruption quarantines the
// page.
func (t *Tree) fetchDataPage(m *fetchMeter, id pagefile.PageID) ([]byte, error) {
	if m.budget > 0 {
		if err := m.chargeData(); err != nil {
			return nil, err
		}
	}
	if err := t.checkQuarantine(id); err != nil {
		return nil, err
	}
	buf, err := t.data.ReadPage(id)
	if err != nil {
		return nil, t.noteReadError(id, err)
	}
	return buf, nil
}
