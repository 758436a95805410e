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
//     is not underfull either), and an intermediate root of two entries or
//     more (condense relies on both),
//   - uniform leaf depth,
//   - every intermediate entry's bounding boxes covering the corresponding
//     boundary boxes of its child's entries at every catalog value
//     (the containment property behind Observation 4),
//   - stored object count matching the leaf entry count,
//   - the working tree's ID directory laid out as directory.check holds it,
//     holding the leaf entries' IDs, each at its entry's record address,
//     and no other,
//   - every leaf entry's shape reference within the shape table, its MBR's
//     extents those of the prototype to within pcr.ShapeSlack, and a
//     centre entry's shape recentrable,
//   - the recorded root box equal to the root's boundary box at p = 0,
//   - the recorded count of unshaped leaf entries (Tree.unshaped) equal to
//     the leaves'.
//
// It returns the first violation found, or nil.
func (t *Tree) CheckInvariants() error {
	if err := t.dir.check(); err != nil {
		return err
	}
	st := &treeState{rootPage: t.rootPage, rootLevel: t.rootLevel, size: t.Len(), shapes: t.shapes, unshaped: t.unshaped, rootMBR: t.rootMBR}
	return t.checkTreeAt(st, &t.dir, nil)
}

// checkTreeAt validates the tree of the given state — the working one and
// its directory for the check above, a pinned epoch's and nil for
// Snapshot.CheckInvariants — and with rec set the records that shape
// references vouch for, read through rec. The working tree is read as the
// writer reads it, its dirty pages included; a pinned epoch's committed
// pages are read from the store, as a query reads them, since its check
// runs beside the writer.
func (t *Tree) checkTreeAt(st *treeState, dir *directory, rec *queryScratch) error {
	read := t.readNode
	if dir == nil {
		read = func(page pagefile.PageID, level int) (*node, error) {
			p, err := t.readCommitted(page, level)
			if err != nil {
				return nil, err
			}
			return t.expand(p, st.shapes), nil
		}
	}
	total, unshaped := 0, 0
	var sc boundScratch // the writer's is not this check's: a snapshot's runs beside it
	var check func(page pagefile.PageID, isRoot bool, wantLevel int) ([]geom.Rect, error)
	check = func(page pagefile.PageID, isRoot bool, wantLevel int) ([]geom.Rect, error) {
		n, err := read(page, wantLevel)
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
		// A leaf a UTR4 file holds met the fill in full entries, and a U-tree
		// intermediate node a file before UTR6 holds met it in float64
		// entries; read, or rewritten in the narrower form, each keeps the
		// count that did.
		if !isRoot && b < minFill && len(n.entries)*full < minFill && !t.wideFill(n) {
			return nil, fmt.Errorf("core: node %d underfull: %d entries in %d < %d bytes", page, len(n.entries), b, minFill)
		}
		if n.leaf() {
			total += len(n.entries)
			unshaped += n.unshaped
			for i := range n.entries {
				e := &n.entries[i]
				if err := t.checkShape(e, st.shapes, rec); err != nil {
					return nil, fmt.Errorf("core: node %d entry %d: %w", page, i, err)
				}
				if dir == nil {
					continue
				}
				if addr, ok := dir.get(e.id); !ok || addr != e.addr {
					return nil, fmt.Errorf("core: node %d entry %d: object %d at %+v, the directory has %+v (live %v)", page, i, e.id, e.addr, addr, ok)
				}
			}
			if len(n.entries) == 0 {
				return nil, nil
			}
			return t.unionBoundary(n, &sc), nil
		}
		if len(n.entries) == 0 {
			return nil, fmt.Errorf("core: empty intermediate node %d", page)
		}
		if isRoot && len(n.entries) == 1 {
			return nil, fmt.Errorf("core: intermediate root %d holds one entry", page)
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
		return t.unionBoundary(n, &sc), nil
	}
	boxes, err := check(st.rootPage, true, st.rootLevel)
	if err != nil {
		return err
	}
	if total != st.size {
		return fmt.Errorf("core: size %d but %d leaf entries", st.size, total)
	}
	if t.kind == UTree && unshaped != st.unshaped {
		return fmt.Errorf("core: %d unshaped leaf entries recorded, the leaves hold %d", st.unshaped, unshaped)
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
// and with rec set the record's pdf, read through rec, against the shape
// and a centre entry's centre.
func (t *Tree) checkShape(e *entry, shapes []shape, rec *queryScratch) error {
	if e.shape == 0 {
		return nil
	}
	if int(e.shape) > len(shapes) {
		return fmt.Errorf("shape reference %d beyond a table of %d", e.shape, len(shapes))
	}
	sh := shapes[e.shape-1].fit
	key, pm := sh.Proto().ShapeKey(), sh.MBR()
	if e.ctr != nil && sh.Recentrer() == nil {
		return fmt.Errorf("centre entry names shape %d (%s), which cannot be recentred", e.shape, key)
	}
	for i := range pm.Lo {
		if d := pcr.ShapeSlack(pm, e.mbr, i); !(math.Abs(e.mbr.Side(i)-pm.Side(i)) <= d) {
			return fmt.Errorf("MBR %v does not have the extents of shape %d (%v)", e.mbr, e.shape, pm)
		}
	}
	if rec == nil {
		return nil
	}
	obj, err := rec.object(t.store, shapes, e.id, e.addr, new(int))
	if err == nil && obj.PDF.ShapeKey() != key {
		err = fmt.Errorf("names shape %d (%s), its record holds %s", e.shape, key, obj.PDF.ShapeKey())
	}
	if err == nil && e.ctr != nil && !sameBits(e.ctr, obj.PDF.Center()) {
		err = fmt.Errorf("centre %v, its record's %v", e.ctr, obj.PDF.Center())
	}
	return err
}

// sameBits reports whether a and b hold the same float64 bits.
func sameBits(a, b geom.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
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

// wideFill reports whether n is a U-tree intermediate node holding as many
// entries as the minimum fill of a node of float64 entries, the layout
// before UTR6, which had fewer to a page.
func (t *Tree) wideFill(n *node) bool {
	if n.leaf() || t.kind != UTree {
		return false
	}
	return len(n.entries) >= max1(pageBytes/wideInnerSize(t.dim)*2/5)
}
