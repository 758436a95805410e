package uncertain

import (
	"repro/internal/core"
)

// This file is the per-query options surface of the context-first query
// API. Search and NearestNeighbors accept functional options that are
// folded into the query's own option block, so queries with different
// limits run concurrently on one index without any global mutator. A
// k-NN query's precision is the index's (Config.MonteCarloSamples), and
// range refinement is exact.

// QueryOption customizes one query. Options are applied in order; later
// options override earlier ones. The zero option set reproduces the
// index's configured behavior bit for bit.
type QueryOption func(*core.QueryOpts)

// resolveOptions folds opts into the core per-query option block.
func resolveOptions(opts []QueryOption) core.QueryOpts {
	var o core.QueryOpts
	for _, opt := range opts {
		if opt != nil {
			opt(&o)
		}
	}
	return o
}

// WithLimit stops a range query after n results (a top-N early cut) and
// caps k for NN queries. The cut is deterministic — a limited query
// returns a prefix of the unlimited query's result sequence — but which
// objects form that prefix depends on traversal order, and on a sharded
// index each shard cuts at n before the ID-sorted merge truncates to n.
// n ≤ 0 means unlimited.
func WithLimit(n int) QueryOption {
	return func(o *core.QueryOpts) { o.Limit = n }
}
