package uncertain

import (
	"context"
)

// Index is the unified contract of the two U-tree shapes in this package:
// the single-store Tree and the scatter-gather ShardedTree. Code that
// drives an index — the batch QueryEngine, the experiment harness, CLIs —
// should accept an Index so callers pick the shape that fits their
// workload:
//
//   - Tree: lock-free snapshot reads beside one serialized writer; queries
//     pin the committed epoch and never wait on a writer's page I/O. A
//     single goroutine pays one uncontended mutex per mutation.
//   - ShardedTree: K independent Trees; queries fan out across the shards
//     concurrently (a spatial split skips shards whose root box misses
//     the query), and writers on different shards proceed in parallel.
//
// Every Index is safe for concurrent use and can be handed to a
// QueryEngine. Queries observe the last committed epoch: every completed
// mutation outside a WriteBatch, and every completed WriteBatch.
//
// The query surface is context-first: every query takes a
// context.Context for cancellation and deadlines (queries check it before
// every page fetch and every refinement integration, so a cancelled query
// returns within roughly one page read) plus per-query QueryOptions
// resolved into an immutable plan — precision, result limits and I/O
// budgets are per-query decisions, with no global mutator and no lock taken
// to change them.
type Index interface {
	// Insert adds an object. IDs must be unique across the whole index.
	Insert(id int64, pdf PDF) error
	// Delete removes an object inserted in this process lifetime.
	Delete(id int64) error
	// BulkLoad batch-builds an empty index bottom-up.
	BulkLoad(objects map[int64]PDF) error
	// WriteBatch applies fn's mutations as one commit epoch (per shard for
	// sharded indexes): readers observe the whole batch or none of it, and
	// file-backed durability moves in batch granularity.
	WriteBatch(fn func(BatchWriter) error) error
	// GCInfo reports epoch-collector health: snapshot pins, pending epochs
	// and pages, and the lifetime reclaim counter (merged over shards for
	// sharded indexes).
	GCInfo() GCInfo
	// Health reports storage health: quarantined (corrupt) pages and
	// cumulative transient-fault retries (merged over shards for sharded
	// indexes). All zeroes on a healthy index.
	Health() HealthInfo
	// Search answers a probabilistic range query: objects appearing in rect
	// with probability ≥ prob. A cancelled or deadline-exceeded ctx stops
	// the traversal promptly with ctx.Err() and the partial results found
	// so far; WithPageBudget stops it with ErrBudgetExceeded the same way.
	Search(ctx context.Context, rect Rect, prob float64, opts ...QueryOption) ([]Result, Stats, error)
	// NearestNeighbors returns the k objects with the smallest expected
	// distance to q, ascending, under the same context and option contract
	// as Search.
	NearestNeighbors(ctx context.Context, q Point, k int, opts ...QueryOption) ([]Neighbor, NNStats, error)
	// Len returns the number of indexed objects in the last committed
	// epoch.
	Len() int
	// CacheStats reports cumulative buffer-pool hits and misses (summed
	// over shards for sharded indexes).
	CacheStats() (hits, misses int64)
	// NodeCacheStats reports cumulative decoded-node-cache hits and misses
	// (summed over shards for sharded indexes; both zero when
	// Config.NodeCacheEntries is negative).
	NodeCacheStats() (hits, misses int64)
	// Flush writes buffered dirty pages through to the store(s) and drains
	// retired copy-on-write pages no snapshot pins.
	Flush() error
	// CheckInvariants validates the index structure (every shard for
	// sharded indexes).
	CheckInvariants() error
	// Close flushes and releases the index.
	Close() error
}

// Compile-time checks that both shapes satisfy the interface.
var (
	_ Index = (*Tree)(nil)
	_ Index = (*ShardedTree)(nil)
)
