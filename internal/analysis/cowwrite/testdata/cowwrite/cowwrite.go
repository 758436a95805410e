// Package cowfix exercises the cowwrite analyzer: page mutations are
// legal only inside the relocation/commit funnel.
package cowfix

// PageID mirrors the pagefile page identifier.
type PageID uint32

// Store mirrors the page store: its name triggers the Write check.
type Store struct{ pages map[PageID][]byte }

// Write is a funnel name: page mutation inside it is its whole job.
func (s *Store) Write(id PageID, b []byte) { s.pages[id] = b }

// MarkInPlace is likewise a funnel name.
func (s *Store) MarkInPlace(id PageID) {}

// MemStore exercises the *Store-suffix naming convention.
type MemStore struct{ pages map[PageID][]byte }

// Write mutates a page (funnel name, allowed inside).
func (s *MemStore) Write(id PageID, b []byte) { s.pages[id] = b }

// BufferPool mirrors the page cache.
type BufferPool struct{ cache map[PageID][]byte }

// Put caches a page; storing into the map keeps Put itself clean.
func (bp *BufferPool) Put(id PageID, b []byte) { bp.cache[id] = b }

type node struct{ id PageID }

type tree struct {
	store *Store
	mem   *MemStore
	pool  *BufferPool
}

// writeNode is the COW relocation funnel: direct page writes are its job.
func (t *tree) writeNode(n *node, buf []byte) {
	t.store.Write(n.id, buf)
	t.pool.Put(n.id, buf)
}

// writeMeta is the commit point, the one place in-place is sanctioned.
func (t *tree) writeMeta(buf []byte) {
	t.store.MarkInPlace(0)
	t.store.Write(0, buf)
}

// rebalance is NOT in the funnel: every page mutation here breaks COW.
func (t *tree) rebalance(n *node, buf []byte) {
	t.store.Write(n.id, buf)  // want `page write \(Store\.Write\) outside the COW funnel in rebalance`
	t.mem.Write(n.id, buf)    // want `page write \(MemStore\.Write\) outside the COW funnel in rebalance`
	t.pool.Put(n.id, buf)     // want `BufferPool\.Put outside the COW funnel in rebalance`
	t.store.MarkInPlace(n.id) // want `MarkInPlace outside the COW funnel in rebalance`
}

// DeleteBatch is not a funnel name: data records are write-once, so an
// in-place data-page writer is flagged like any other.
func (t *tree) DeleteBatch(n *node, buf []byte) {
	t.store.MarkInPlace(n.id) // want `MarkInPlace outside the COW funnel in DeleteBatch`
	t.store.Write(n.id, buf)  // want `page write \(Store\.Write\) outside the COW funnel in DeleteBatch`
}

// compact shows the waiver mechanism: the mutation is argued, not hidden.
func (t *tree) compact(n *node, buf []byte) {
	//ulint:ignore cowwrite recovery rewrites the page image it has just validated
	t.store.Write(n.id, buf)
}

// logger has a Write method but is no page store: never flagged.
type logger struct{}

// Write appends to the log.
func (l *logger) Write(p []byte) (int, error) { return len(p), nil }

func audit(l *logger, p []byte) {
	l.Write(p)
}
