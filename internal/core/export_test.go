package core

import (
	"iter"
	"math"

	"repro/internal/pagefile"
)

// Hooks into the tree's private state for the tests of this package.

// corruptDirectory sets id's directory entry to addr, or removes it when
// live is false, bypassing the journal: no mutation makes such a change.
func (t *Tree) corruptDirectory(id int64, addr DataAddr, live bool) {
	if live {
		t.dir.set(id, addr)
	} else {
		t.dir.remove(id)
	}
}

// all yields every live ID of the directory with its record address: the
// live rows in ID order, then the recent IDs in no order.
func (d *directory) all() iter.Seq2[int64, DataAddr] {
	return func(yield func(int64, DataAddr) bool) {
		for i, id := range d.ids {
			if d.pages[i] != pagefile.InvalidPage && !yield(id, DataAddr{Page: d.pages[i], Slot: d.slots[i]}) {
				return
			}
		}
		for id, addr := range d.recent {
			if !yield(id, addr) {
				return
			}
		}
	}
}

// LiftChooseCut makes t's ChooseSubtree score overlap enlargement for every
// child at level 1, as it did before the candidate cut (chooseCut).
func LiftChooseCut(t *Tree) { t.cut = math.MaxInt }

// LeafFill returns, for each leaf of t's working tree, the IDs of its
// objects and its free bytes less one entry of the largest form it holds:
// negative where the leaf has no room for another of those.
func LeafFill(t *Tree) (ids [][]int64, spare []int, err error) {
	err = t.walk(t.rootPage, t.rootLevel, func(n *node) error {
		if !n.leaf() {
			return nil
		}
		big, leaf := 0, make([]int64, len(n.entries))
		for i := range n.entries {
			big, leaf[i] = max(big, t.entrySize(&n.entries[i], true)), n.entries[i].id
		}
		ids, spare = append(ids, leaf), append(spare, pageBytes-t.entryBytes(n.entries, true)-big)
		return nil
	})
	return ids, spare, err
}

// cachedNodes returns the nodes t's decoded-node cache holds.
func (t *Tree) cachedNodes() []*packedNode {
	var ns []*packedNode
	for i := range t.ncache.shards {
		s := &t.ncache.shards[i]
		s.mu.Lock()
		for _, el := range s.entries {
			ns = append(ns, el.Value.(*ncEntry).n)
		}
		s.mu.Unlock()
	}
	return ns
}
