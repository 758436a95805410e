package core

import (
	"errors"
	"fmt"

	"repro/internal/pagefile"
)

// fetchMeter tallies a query's decoded-node cache outcomes (threaded into
// QueryStats/NNStats by the traversals).
type fetchMeter struct {
	ncHits   int // decoded-node cache hits this query
	ncMisses int // decoded-node cache misses this query (cache enabled only)
}

// fetchNode reads the tree page a descent expects at level. The
// decoded-node cache is consulted first: a hit costs no I/O and no decode —
// the node is returned shared (the traversals only read it). On a miss the
// node is read from the store and, when its page is committed, offered to
// the cache. Neither is a logical node read: those count the writer's.
func (t *Tree) fetchNode(m *fetchMeter, id pagefile.PageID, level int) (*packedNode, error) {
	if t.ncache != nil {
		if n, ok := t.ncache.get(id); ok {
			m.ncHits++
			return n, t.checkLevel(n, level)
		}
		m.ncMisses++
	}
	n, err := t.readCommitted(id, level)
	if err != nil {
		return nil, err
	}
	t.maybeCacheNode(n)
	return n, nil
}

// readCommitted reads a committed node page straight from the store: the
// writer's dirty map holds the open batch's bytes, which no reader sees. On
// a memory tree the node views the MemStore's own page (MemStore.View)
// where it is shareable: a committed node page is never written in place,
// since writeNode relocates it, and its id is reused only once the epoch GC
// has freed it (see nodeCache). Otherwise the page is read into a fresh
// buffer, which the node then owns.
func (t *Tree) readCommitted(id pagefile.PageID, level int) (*packedNode, error) {
	var buf []byte
	var err error
	if t.mem != nil && t.shareable(id) {
		buf, err = t.mem.View(id)
	} else {
		buf = make([]byte, pagefile.PageSize)
		err = t.store.Read(id, buf)
	}
	if err != nil {
		return nil, nodeReadErr(id, err)
	}
	return t.decodeAt(id, level, buf)
}

// nodeReadErr is a failed read of node page id. The metadata page or a node
// named the page, so an id beyond the store makes that page corrupt: a
// BadPageError, as a decode's refusal is.
func nodeReadErr(id pagefile.PageID, err error) error {
	if errors.Is(err, pagefile.ErrPageOutOfRange) {
		err = &pagefile.BadPageError{Page: id, Reason: err.Error()}
	}
	return fmt.Errorf("core: reading node %d: %w", id, err)
}

// decodeAt decodes page id, read into buf, where a descent expects a node
// at level; the node views buf (decodeNode). A corrupt page fails with
// ErrBadPage; nothing remembers it.
func (t *Tree) decodeAt(id pagefile.PageID, level int, buf []byte) (*packedNode, error) {
	n, err := t.decodeNode(id, buf)
	if err != nil {
		return nil, err
	}
	return n, t.checkLevel(n, level)
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
