package uncertain

import (
	"repro/internal/core"
)

// This file is the per-query options surface of the context-first query
// API. Search and NearestNeighbors accept functional options that are
// resolved once, up front, into an immutable per-query plan — so queries
// with different precision/latency trade-offs run concurrently on one
// index without any global mutator. The per-query precision knobs
// follow the probabilistic-pruning literature (Bernecker et al.), where
// refinement effort is a query-time choice, not an index-time one.

// QueryOption customizes one query. Options are applied in order; later
// options override earlier ones. The zero option set reproduces the
// index's configured behavior bit for bit.
type QueryOption func(*queryPlan)

// queryPlan accumulates the options before they are handed to the core
// traversal as a resolved core.QueryOpts.
type queryPlan struct {
	o core.QueryOpts
}

// resolveOptions folds opts into the core per-query option block.
func resolveOptions(opts []QueryOption) core.QueryOpts {
	var p queryPlan
	for _, opt := range opts {
		if opt != nil {
			opt(&p)
		}
	}
	return p.o
}

// WithMonteCarloSamples overrides Config.MonteCarloSamples for this query:
// n1 of the refinement estimator (Equation 3). Lower is faster and
// coarser, higher is slower and tighter — the per-query precision/latency
// trade-off. n ≤ 0 is ignored (the index default applies).
func WithMonteCarloSamples(n int) QueryOption {
	return func(p *queryPlan) { p.o.MCSamples = n }
}

// WithLimit stops a range query after n results (a top-N early cut) and
// caps k for NN queries. The cut is deterministic — a limited query
// returns a prefix of the unlimited query's result sequence — but which
// objects form that prefix depends on traversal order, and on a sharded
// index each shard cuts at n before the ID-sorted merge truncates to n.
// n ≤ 0 means unlimited.
func WithLimit(n int) QueryOption {
	return func(p *queryPlan) { p.o.Limit = n }
}
