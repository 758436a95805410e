package core

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/pagefile"
)

// Delete removes the object id from the index; an ID the tree does not hold
// is ErrNotFound, and nothing is mutated. It reads the object's record (from
// the writer's bytes if its page is the append page or this batch wrote it)
// for the region MBR that guides the descent, mirroring R-tree deletion; a
// record holding another ID is a *pagefile.BadPageError. The record is
// write-once and stays, so a snapshot pinned earlier can still refine it,
// and no data page is written.
func (t *Tree) Delete(id int64) error {
	addr, ok := t.dir.get(id)
	if !ok {
		return fmt.Errorf("%w: id %d", ErrNotFound, id)
	}
	rec, legacy, err := t.readRecord(addr)
	var o Object
	if err == nil {
		o, err = decodeObject(rec, legacy, t.shapes)
	}
	if err == nil && o.ID != id {
		err = &pagefile.BadPageError{Page: addr.Page, Reason: fmt.Sprintf("record slot %d holds object %d, not %d", addr.Slot, o.ID, id)}
	}
	if err != nil {
		return err
	}
	leaf, path, idx, err := t.findLeaf(t.rootPage, t.rootLevel, nil, id, o.PDF.MBR())
	if err != nil {
		return err
	}
	if leaf == nil {
		return fmt.Errorf("%w: id %d in no leaf", ErrNotFound, id)
	}
	leaf.entries = append(leaf.entries[:idx], leaf.entries[idx+1:]...)
	if err := t.writeNode(leaf); err != nil {
		return err
	}
	if err := t.condense(leaf, path); err != nil {
		return err
	}
	t.journal(id)
	t.dir.remove(id)
	return nil
}

// findLeaf locates the leaf containing (id, mbr), mbr being the region MBR
// of the object's record, which the leaf entry's MBR equals
// exactly: the entry was built from the same pdf. A subtree can hold the
// entry only if its boundary box at p_1 = 0 — an intermediate entry's first
// box, MBR⊥ or the p_1 box — contains the object's MBR: a leaf entry's
// cfb_out(0) (U-tree) or pcr(0) (U-PCR) covers the region MBR, and
// intermediate boxes cover those in turn. The descent tolerates the
// same float epsilon as CheckInvariants, so a box whose faces round a hair
// inside the true union never hides an existing entry.
func (t *Tree) findLeaf(page pagefile.PageID, level int, path []pathElem, id int64, mbr geom.Rect) (*node, []pathElem, int, error) {
	n, err := t.readNode(page, level)
	if err != nil {
		return nil, nil, -1, err
	}
	if n.leaf() {
		for i := range n.entries {
			if n.entries[i].id == id && n.entries[i].mbr.Equal(mbr) {
				return n, path, i, nil
			}
		}
		return nil, nil, -1, nil
	}
	for i := range n.entries {
		if !containsEps(n.entries[i].boxes[0], mbr, 1e-7) {
			continue
		}
		leaf, p, idx, err := t.findLeaf(n.entries[i].child, n.level-1, append(path, pathElem{n: n, childIdx: i}), id, mbr)
		if err != nil {
			return nil, nil, -1, err
		}
		if leaf != nil {
			return leaf, p, idx, nil
		}
	}
	return nil, nil, -1, nil
}

// condense removes underfull nodes along the path and reinserts their
// entries at the appropriate level (CondenseTree adapted to the U-tree).
func (t *Tree) condense(n *node, path []pathElem) error {
	type orphan struct {
		e     entry
		level int
	}
	var orphans []orphan

	for i := len(path) - 1; i >= 0; i-- {
		parent := path[i]
		minFill := t.minLeaf
		if !n.leaf() {
			minFill = t.minInner
		}
		if t.entryBytes(n.entries, n.leaf()) < minFill {
			parent.n.entries = append(parent.n.entries[:parent.childIdx], parent.n.entries[parent.childIdx+1:]...)
			// Later path elements' childIdx values are positions in other
			// nodes, unaffected; earlier ones reference parent nodes above.
			for _, e := range n.entries {
				orphans = append(orphans, orphan{e, n.level})
			}
			t.unshaped -= n.unshaped
			if err := t.freePage(n.page); err != nil {
				return err
			}
		} else if len(n.entries) > 0 {
			parent.n.entries[parent.childIdx].boxes = t.nodeBoundary(n)
			parent.n.entries[parent.childIdx].child = n.page // COW may have moved n
		}
		if err := t.writeNode(parent.n); err != nil {
			return err
		}
		n = parent.n
	}

	// Root adjustments: collapse single-child internal roots. An
	// intermediate root holds two entries or more and a delete removes at
	// most one of them, so it never empties; one that does is refused.
	for {
		root, err := t.readNode(t.rootPage, t.rootLevel)
		if err != nil {
			return err
		}
		if root.leaf() {
			break
		}
		if len(root.entries) == 0 {
			return fmt.Errorf("core: the intermediate root %d has no entries", root.page)
		}
		if len(root.entries) > 1 {
			break
		}
		child := root.entries[0].child
		childNode, err := t.readNode(child, root.level-1)
		if err != nil {
			return err
		}
		if err := t.freePage(root.page); err != nil {
			return err
		}
		t.rootPage = child
		t.rootLevel = childNode.level
		t.rootMBR = t.rootBox(childNode)
	}

	// Reinsert orphans, each at its original level: a leaf entry into a
	// leaf, a subtree's entry into a node at the subtree root's parent
	// level. None lies above the root. An orphan of level L ≥ 1 comes
	// from an underfull intermediate node, so minInner is two entries or
	// more. The root shrinks only by collapsing onto a child of one entry,
	// and its surviving child — at level rootLevel − 1, at or above every
	// orphan — holds at least minInner entries: off the path because every
	// non-root node does, on it because it was not underfull.
	// CheckInvariants checks both fills. A tree that breaks them is refused
	// here.
	for _, o := range orphans {
		if o.level > t.rootLevel {
			return fmt.Errorf("core: an orphan of level %d above the root at level %d", o.level, t.rootLevel)
		}
		if err := t.insertEntry(o.e, o.level, make(map[int]bool)); err != nil {
			return err
		}
	}
	return nil
}
