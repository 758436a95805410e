package uncertain

import (
	"context"
)

// Index is the unified contract of the two U-tree shapes in this package:
// the single-store Tree and the slab-sharded ShardedTree. Code that
// drives an index, such as the batch QueryEngine, should accept an Index
// so callers pick the shape that fits their workload:
//
//   - Tree: lock-free snapshot reads beside one serialized writer; queries
//     pin the committed epoch and never wait on a writer's page I/O. A
//     single goroutine pays one uncontended mutex per mutation.
//   - ShardedTree: K independent Trees over slabs of the domain; a query
//     searches the shards one after another on the caller's goroutine
//     (skipping shards whose root box rules them out), writers of the
//     whole index take one lock, and a WriteBatch commits its per-shard
//     shares in parallel.
//
// Every Index is safe for concurrent use and can be handed to a
// QueryEngine. Queries observe the last committed epoch: every completed
// mutation outside a WriteBatch, and every completed WriteBatch.
//
// The query surface is context-first: every query takes a
// context.Context for cancellation and deadlines (queries check it before
// every page fetch and every refinement integration, so a cancelled query
// returns within roughly one page read) plus per-query QueryOptions (a
// result limit). A k-NN query's precision is the index's
// Config.MonteCarloSamples, set when the index is built or opened.
type Index interface {
	// Insert adds an object. An ID live anywhere in the index returns
	// ErrDuplicateID and mutates nothing.
	Insert(id int64, pdf PDF) error
	// Delete removes an object by ID, whenever and by whichever handle it
	// was inserted. An ID that is not live returns ErrNotFound and mutates
	// nothing.
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
	// Search answers a probabilistic range query: objects appearing in rect
	// with probability ≥ prob. A cancelled or deadline-exceeded ctx stops
	// the traversal promptly with ctx.Err() and the partial results found
	// so far.
	Search(ctx context.Context, rect Rect, prob float64, opts ...QueryOption) ([]Result, Stats, error)
	// NearestNeighbors returns the k objects with the smallest expected
	// distance to q, ascending, under the same context and option contract
	// as Search.
	NearestNeighbors(ctx context.Context, q Point, k int, opts ...QueryOption) ([]Neighbor, NNStats, error)
	// Len returns the number of indexed objects in the last committed
	// epoch.
	Len() int
	// CacheStats reports the writer's cumulative node reads: hits (node
	// pages read back from the open batch's dirty pages) and misses (node
	// pages read from the store), summed over shards for sharded indexes.
	// A query counts in neither.
	CacheStats() (hits, misses int64)
	// NodeCacheStats reports cumulative decoded-node-cache hits and misses
	// (summed over shards for sharded indexes; both zero when
	// Config.NodeCacheEntries is negative).
	NodeCacheStats() (hits, misses int64)
	// Flush drains retired copy-on-write pages no snapshot pins; every
	// committed page is already in the store(s).
	Flush() error
	// CheckInvariants validates the index structure (every shard for
	// sharded indexes).
	CheckInvariants() error
	// Close releases the index. It commits nothing: every mutation has
	// already committed or rolled back.
	Close() error
}

// Compile-time checks that both shapes satisfy the interface.
var (
	_ Index = (*Tree)(nil)
	_ Index = (*ShardedTree)(nil)
)
