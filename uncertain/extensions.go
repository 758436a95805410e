package uncertain

import (
	"context"

	"repro/internal/core"
	"repro/internal/updf"
)

// This file exposes the library's extensions beyond the paper's prob-range
// query: polygon and mixture pdfs ("uncertainty regions of any shapes"),
// expected-distance nearest neighbors and STR bulk loading.

// UniformPolygon is a uniform pdf over a 2D convex polygon (the convex hull
// of the given points is used).
func UniformPolygon(vertices []Point) PDF {
	vs := make([]Point, len(vertices))
	copy(vs, vertices)
	return updf.NewUniformPolygon(vs)
}

// MixturePDF is a weighted mixture of pdfs — multi-modal uncertainty.
// Weights are normalized internally.
func MixturePDF(components []PDF, weights []float64) PDF {
	return updf.NewMixture(components, weights)
}

// Neighbor is one nearest-neighbor result.
type Neighbor = core.NNResult

// NNStats reports nearest-neighbor traversal cost.
type NNStats = core.NNStats

// NearestNeighbors returns the k objects with the smallest expected
// distance E[dist(o, q)] to the query point, ascending, against a pinned
// snapshot of the latest committed epoch (see Search for the isolation
// contract). It honors ctx and the per-query options under the same
// contract as Search (WithLimit caps k; a cancelled traversal returns the
// neighbors found so far with ctx.Err()).
func (t *Tree) NearestNeighbors(ctx context.Context, q Point, k int, opts ...QueryOption) ([]Neighbor, NNStats, error) {
	snap := t.inner.Snapshot()
	defer snap.Close()
	return snap.NearestNeighbors(ctx, q, k, resolveOptions(opts))
}

// BulkLoad builds the index bottom-up (STR packing) from a batch of
// objects (writer lock); the tree must be empty. Far faster than repeated
// Insert and produces a tighter tree; the index stays fully dynamic
// afterwards. The whole load commits as a single epoch: snapshots see
// either the empty tree or the complete load, never a partial one. The
// objects go to the load in map order: the pages it writes, and with them
// I/O counts and k-NN estimates, are a function of the object set alone.
func (t *Tree) BulkLoad(objects map[int64]PDF) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	objs := make([]core.Object, 0, len(objects))
	for id, p := range objects {
		objs = append(objs, core.Object{ID: id, PDF: p})
	}
	if err := t.inner.BulkLoad(objs); err != nil {
		return t.rollback(err)
	}
	return t.commit()
}
