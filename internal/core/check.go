package core

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/pagefile"
	"repro/internal/pcr"
)

// CheckInvariants validates the structural and geometric invariants of the
// index:
//
//   - node occupancy within [minFill, capacity] bytes (root exempt from the
//     minimum; a node with as many entries as minFill bytes of full entries
//     is not underfull either),
//   - uniform leaf depth,
//   - every intermediate entry's bounding boxes covering the corresponding
//     boundary boxes of its child's entries at every catalog value
//     (the containment property behind Observation 4),
//   - stored object count matching the leaf entry count,
//   - every leaf entry's shape reference within the shape table, and its
//     MBR's extents those of the prototype to within pcr.ShapeSlack,
//   - the recorded root box equal to the root's boundary box at p = 0.
//
// It returns the first violation found, or nil.
func (t *Tree) CheckInvariants() error {
	return t.checkTreeAt(&treeState{rootPage: t.rootPage, rootLevel: t.rootLevel, size: t.size, shapes: t.shapes, rootMBR: t.rootMBR}, false)
}

// checkTreeAt validates the tree of the given state — the working one for
// the check above, a pinned epoch's for Snapshot.CheckInvariants — and with
// records set the records that shape references vouch for.
func (t *Tree) checkTreeAt(st *treeState, records bool) error {
	total := 0
	var check func(page pagefile.PageID, isRoot bool, wantLevel int) ([]geom.Rect, error)
	check = func(page pagefile.PageID, isRoot bool, wantLevel int) ([]geom.Rect, error) {
		n, err := t.readNodeIn(page, wantLevel, st.shapes)
		if err != nil {
			return nil, err
		}
		minFill, full := t.minLeaf, t.leafEntrySize
		if !n.leaf() {
			minFill, full = t.minInner, t.innerEntrySize
		}
		b := t.entryBytes(n.entries, n.leaf())
		if b > pageBytes {
			return nil, fmt.Errorf("core: node %d overfull: %d entries in %d > %d bytes", page, len(n.entries), b, pageBytes)
		}
		// A leaf a UTR4 file holds met the fill in full entries; read or
		// rewritten compact it keeps their count.
		if !isRoot && b < minFill && len(n.entries)*full < minFill {
			return nil, fmt.Errorf("core: node %d underfull: %d entries in %d < %d bytes", page, len(n.entries), b, minFill)
		}
		if n.leaf() {
			total += len(n.entries)
			for i := range n.entries {
				if err := t.checkShape(&n.entries[i], st.shapes, records); err != nil {
					return nil, fmt.Errorf("core: node %d entry %d: %w", page, i, err)
				}
			}
			if len(n.entries) == 0 {
				return nil, nil
			}
			return t.nodeBoundary(n), nil
		}
		if len(n.entries) == 0 {
			return nil, fmt.Errorf("core: empty intermediate node %d", page)
		}
		for i := range n.entries {
			childBoxes, err := check(n.entries[i].child, false, n.level-1)
			if err != nil {
				return nil, err
			}
			if childBoxes == nil {
				return nil, fmt.Errorf("core: intermediate node %d has empty child", page)
			}
			// Containment at every catalog value (interpolated where the
			// representation is linear).
			for j := 0; j < t.cat.Size(); j++ {
				parentBox := t.boxAt(n.entries[i].boxes, j)
				childBox := t.boxAt(childBoxes, j)
				if !containsEps(parentBox, childBox, 1e-7) {
					return nil, fmt.Errorf("core: node %d entry %d at p_%d: parent box %v does not cover child %v",
						page, i, j, parentBox, childBox)
				}
			}
		}
		return t.nodeBoundary(n), nil
	}
	boxes, err := check(st.rootPage, true, st.rootLevel)
	if err != nil {
		return err
	}
	if total != st.size {
		return fmt.Errorf("core: size %d but %d leaf entries", st.size, total)
	}
	var root geom.Rect
	if boxes != nil {
		root = t.boxAt(boxes, 0)
	}
	if !st.rootMBR.Equal(root) {
		return fmt.Errorf("core: recorded root box %v, root's boundary at p = 0 is %v", st.rootMBR, root)
	}
	return nil
}

// checkShape validates a leaf entry's shape reference against the table,
// and with record set the record's pdf against the shape.
func (t *Tree) checkShape(e *entry, shapes []shape, record bool) error {
	if e.shape == 0 {
		return nil
	}
	if int(e.shape) > len(shapes) {
		return fmt.Errorf("shape reference %d beyond a table of %d", e.shape, len(shapes))
	}
	sh := shapes[e.shape-1]
	for i := range sh.mbr.Lo {
		if d := pcr.ShapeSlack(sh.mbr, e.mbr, i); !(math.Abs(e.mbr.Side(i)-sh.mbr.Side(i)) <= d) {
			return fmt.Errorf("MBR %v does not have the extents of shape %d (%v)", e.mbr, e.shape, sh.mbr)
		}
	}
	if !record {
		return nil
	}
	var obj Object
	rec, err := t.data.Read(e.addr)
	if err == nil {
		obj, err = decodeObject(rec, shapes)
	}
	if err == nil && obj.PDF.ShapeKey() != sh.pdf.ShapeKey() {
		err = fmt.Errorf("names shape %d (%s), its record holds %s", e.shape, sh.pdf.ShapeKey(), obj.PDF.ShapeKey())
	}
	return err
}

// containsEps is Contains with an absolute tolerance absorbing the float
// round-trip through page serialization.
func containsEps(outer, inner geom.Rect, eps float64) bool {
	for i := range outer.Lo {
		if inner.Lo[i] < outer.Lo[i]-eps || inner.Hi[i] > outer.Hi[i]+eps {
			return false
		}
	}
	return true
}
