package uncertain

import (
	"context"

	"repro/internal/core"
)

// Snapshot is a pinned, immutable view of one committed epoch of a Tree.
// All queries on it observe the same tree regardless of concurrent
// writers; Close releases the pin (idempotent). The zero value is not
// usable — obtain one from Tree.Snapshot.
type Snapshot struct {
	inner *core.Snapshot
}

// Snapshot pins the latest committed epoch and returns a handle whose
// queries all observe that same frozen tree — a consistent multi-query
// read. Close it when done; the pin holds the epoch's retired pages from
// reclamation until then.
func (t *Tree) Snapshot() *Snapshot {
	return &Snapshot{inner: t.inner.Snapshot()}
}

// Search answers a probabilistic range query against the pinned epoch
// (same contract as Tree.Search, minus the "latest epoch" part).
func (s *Snapshot) Search(ctx context.Context, rect Rect, prob float64, opts ...QueryOption) ([]Result, Stats, error) {
	return s.inner.RangeQuery(ctx, core.Query{Rect: rect, Prob: prob}, resolveOptions(opts))
}

// NearestNeighbors answers an expected-distance k-NN query against the
// pinned epoch.
func (s *Snapshot) NearestNeighbors(ctx context.Context, q Point, k int, opts ...QueryOption) ([]Neighbor, NNStats, error) {
	return s.inner.NearestNeighbors(ctx, q, k, resolveOptions(opts))
}

// Len returns the object count at the pinned epoch.
func (s *Snapshot) Len() int { return s.inner.Len() }

// Epoch returns the pinned epoch number.
func (s *Snapshot) Epoch() uint64 { return s.inner.Epoch() }

// CheckInvariants validates the pinned epoch's structure.
func (s *Snapshot) CheckInvariants() error { return s.inner.CheckInvariants() }

// Close releases the pin; idempotent. Retired pages of later epochs drain
// at the next writer-side commit or flush.
func (s *Snapshot) Close() { s.inner.Close() }
