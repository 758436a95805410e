package core

import (
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
