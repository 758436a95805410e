package core

import (
	"math"

	"repro/internal/geom"
	"repro/internal/pagefile"
	"repro/internal/pcr"
)

// Kind selects the index variant.
type Kind int

const (
	// UTree stores CFBs in leaves and two boundary rectangles (MBR⊥, MBR⊤)
	// in intermediate entries — the paper's proposal.
	UTree Kind = iota
	// UPCR stores all m PCRs in leaves and m bounding rectangles in
	// intermediate entries — the comparison structure of Section 6.
	UPCR
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == UPCR {
		return "U-PCR"
	}
	return "U-tree"
}

// entry is the edit form of a node entry for either kind and either node
// level: what the writers (insert, delete, split, condense) edit and
// encodeNode writes. Readers never see it — queries read packedNode, the
// form the decoded-node cache holds — and readNode builds it by expanding
// a private packedNode.
//
// Leaf entries: id, addr, mbr are always set, shape names the object's
// prototype in the tree's shape table (0: none); a U-tree leaf carries fit
// where it has a shape and out/in CFBs where it has none, a U-PCR leaf
// carries its PCRs in boxes (length m, boxes[0] == mbr). A U-tree leaf
// entry whose shape
// is recentrable carries its object's centre too, unless it was read from a
// compact entry, which holds none; the centre is what its page holds
// (entrySize), mbr the shape's box at it.
//
// Intermediate entries: child is set and boxes carries the bounding
// geometry — length 2 for the U-tree ([MBR⊥, MBR⊤], interpolated linearly
// in p) and length m for U-PCR (one bounding rectangle per catalog value),
// the shape of a U-PCR leaf entry's PCRs.
//
// The coordinate slices are read-only. An expanded node's entries lie over
// its packedNode's slabs, and entries are copied by value between nodes
// (split, reinsertion), so a write through mbr, out, in, ctr or boxes
// would reach other entries. Geometry changes by replacing the slice
// (refreshPath); the only in-place writers, interpInto, UnionInPlace and
// roundOut, work on scratch and on cloneBoxes copies.
type entry struct {
	// Leaf fields.
	id   int64
	addr pagefile.DataAddr
	mbr  geom.Rect
	out  pcr.CFB
	in   pcr.CFB
	// fit is a keyed U-tree entry's shape, whose translated faces are its
	// CFBs (it is written compact or centred and stores none); out and in
	// are nil.
	fit   *pcr.Shape
	ctr   geom.Point // a centre entry's centre (centreSize), else nil
	shape uint16     // here, in the word child half fills, the struct does not grow

	// Intermediate fields, and a U-PCR leaf entry's PCRs in boxes.
	child pagefile.PageID
	boxes []geom.Rect
}

// boundary returns the entry's representative boxes used to build parent
// entries: for U-tree entries 2 boxes (at p_1 and p_m), for U-PCR entries m
// boxes (one per catalog value). An intermediate or U-PCR leaf entry's are
// its own; a U-tree leaf entry's are evaluated from its faces into sc, and
// hold until sc's next use. Either way they are read-only.
func (t *Tree) boundary(e *entry, leaf bool, sc *boundScratch) []geom.Rect {
	if !leaf || t.kind != UTree {
		return e.boxes
	}
	b := sc.one.take(2, t.dim)
	if !e.faces(&sc.faces) {
		// A reference beyond the table (expand): the MBR bounds every PCR.
		copyBoxes(b, []geom.Rect{e.mbr, e.mbr})
		return b
	}
	sc.faces.RectInto(b[0], 0)
	sc.faces.RectInto(b[1], t.cat.Max())
	return b
}

// boundScratch is what boundary and unionBoundary work in: one entry's
// faces and boxes, reused from entry to entry.
type boundScratch struct {
	faces pcr.Faces
	one   rectSlab
}

// faces sets f to a U-tree leaf entry's CFBs as the rules read them: its
// shape's, translated, or its stored pair. It reports false for an entry
// with neither, whose reference is beyond the table.
func (e *entry) faces(f *pcr.Faces) bool {
	switch {
	case e.fit != nil:
		e.fit.Translate(f, e.mbr)
	case e.out != nil:
		f.SetCFB(e.out, e.in)
	default:
		return false
	}
	return true
}

// boxAt evaluates an entry's bounding rectangle at catalog index j. For
// 2-box (U-tree) geometry this interpolates the linear e.MBR(p) function of
// Equation 15 (p_1 = 0 makes α = MBR⊥ and β = (MBR⊥−MBR⊤)/p_m); for m-box
// (U-PCR) geometry it returns the stored rectangle.
func (t *Tree) boxAt(boxes []geom.Rect, j int) geom.Rect {
	if t.kind == UPCR {
		return boxes[j]
	}
	r := geom.Rect{Lo: make(geom.Point, t.dim), Hi: make(geom.Point, t.dim)}
	t.boxInto(r, boxes, j)
	return r
}

// boxInto is boxAt into dst's coordinate slices, which the caller provides.
func (t *Tree) boxInto(dst geom.Rect, boxes []geom.Rect, j int) {
	if t.kind == UPCR {
		copy(dst.Lo, boxes[j].Lo)
		copy(dst.Hi, boxes[j].Hi)
		return
	}
	interpInto(dst, boxes[0], boxes[1], t.cat.Value(j)/t.cat.Max())
}

// boxesAt writes boxAt(boxes, j) for every catalog index j into dst[j],
// whose coordinate slices the caller provides.
func (t *Tree) boxesAt(dst, boxes []geom.Rect) {
	for j := range t.cat.Size() {
		t.boxInto(dst[j], boxes, j)
	}
}

// innerMeets reports whether r intersects intermediate entry i's
// e.MBR(p_j) — the descent's Observation 4 test, read where the page holds
// the boxes. A U-tree entry's float32 faces widen to float64 exactly and are
// interpolated with interpInto's arithmetic, and the comparison is
// geom.Rect.Intersects', so the outcome is r.Intersects(t.boxAt(boxes, j))
// on the writer's expanded entry, bit for bit.
func (t *Tree) innerMeets(n *packedNode, i int, r geom.Rect, j int) bool {
	if t.kind == UPCR {
		return r.Intersects(n.boxes(i)[j])
	}
	c, d, f := n.box32(i), len(r.Lo), t.cat.Value(j)/t.cat.Max()
	for k := range r.Lo {
		alo, ahi, blo, bhi := float64(c[k]), float64(c[d+k]), float64(c[2*d+k]), float64(c[3*d+k])
		lo := alo + (blo-alo)*f
		hi := ahi + (bhi-ahi)*f
		if r.Hi[k] < lo || hi < r.Lo[k] {
			return false
		}
	}
	return true
}

// innerMinDist is MINDIST(q, e.MBR(0)) of intermediate entry i — the NN
// frontier's lower bound, read where the page holds the box. At p_1 = 0 the
// interpolation is MBR⊥ itself.
func (t *Tree) innerMinDist(n *packedNode, i int, q geom.Point) float64 {
	if t.kind == UPCR {
		return minDist(q, n.boxes(i)[0])
	}
	c, d := n.box32(i), len(q)
	var s float64
	for k := range q {
		var dk float64
		if lo, hi := float64(c[k]), float64(c[d+k]); q[k] < lo {
			dk = lo - q[k]
		} else if q[k] > hi {
			dk = q[k] - hi
		}
		s += dk * dk
	}
	return math.Sqrt(s)
}

// interpInto linearly interpolates each face of a and b into dst's
// coordinate slices: (1−f)·a + f·b, computed as a + (b − a)·f.
func interpInto(dst, a, b geom.Rect, f float64) {
	for i := range a.Lo {
		dst.Lo[i] = a.Lo[i] + (b.Lo[i]-a.Lo[i])*f
		dst.Hi[i] = a.Hi[i] + (b.Hi[i]-a.Hi[i])*f
	}
}

// unionBoundaries unions per-slot boxes of two boundary sets (same length).
func unionBoundaries(dst, src []geom.Rect) {
	for i := range dst {
		dst[i].UnionInPlace(src[i])
	}
}

// copyBoxes copies src's coordinates into dst's (same length and shape).
func copyBoxes(dst, src []geom.Rect) {
	for i := range dst {
		copy(dst[i].Lo, src[i].Lo)
		copy(dst[i].Hi, src[i].Hi)
	}
}

// cloneBoxes deep-copies a boundary set into one coordinate slab.
func cloneBoxes(b []geom.Rect) []geom.Rect {
	d := b[0].Dim()
	out := newBoxes(len(b), d)
	copyBoxes(out, b)
	return out
}

// newBoxes returns n rectangles of dimensionality d laid over one zeroed
// coordinate slab: two allocations however many there are.
func newBoxes(n, d int) []geom.Rect {
	out := make([]geom.Rect, n)
	layBoxes(out, make([]float64, 2*d*n), d)
	return out
}

// layBoxes lays rects over coords, 2d coordinates each, Lo then Hi.
func layBoxes(rects []geom.Rect, coords []float64, d int) {
	for k := range rects {
		c := coords[2*d*k : 2*d*(k+1) : 2*d*(k+1)]
		rects[k] = geom.Rect{Lo: c[:d:d], Hi: c[d:]}
	}
}

// rectSlab is a set of rectangles laid over one coordinate slice, reused
// from call to call (take).
type rectSlab struct {
	rects []geom.Rect // laid over their coordinates, rect k at 2dk
	d     int
}

// take returns n rectangles of dimensionality d over the slab's
// coordinates, with undefined contents; the previous take's are gone. The
// rectangles are laid again only when the slab grows or d changes.
func (s *rectSlab) take(n, d int) []geom.Rect {
	if len(s.rects) < n || s.d != d {
		s.rects, s.d = newBoxes(max(n, len(s.rects)), d), d
	}
	return s.rects[:n]
}

// roundOut rounds r's faces outward to float32 values, in place: each low
// face to the largest float32 at or below it, each high face to the
// smallest at or above it (pcr.Round32), so the rounded box contains r. A
// U-tree intermediate entry holds its boxes so (encodeInnerEntry).
func roundOut(r geom.Rect) {
	for i := range r.Lo {
		r.Lo[i] = float64(pcr.Round32(r.Lo[i], false))
		r.Hi[i] = float64(pcr.Round32(r.Hi[i], true))
	}
}

// entrySizes returns the on-page sizes (bytes) of full leaf and of
// intermediate entries for the given kind, dimensionality and catalog size.
// A U-tree's CFB coefficients and intermediate boxes are float32: the CFB
// bits pcr.CFB holds in memory (see pcr.CFB for why half width is safe
// there), the boxes rounded outward (roundOut), which keeps them
// conservative; its leaf MBRs and U-PCR's exact faces are float64 (README
// "Leaf layout"). 2-D: 112 B per full U-tree leaf entry and 40 B per
// intermediate one; 3-D: 160 B and 56 B. A keyed U-tree entry is centred
// (centreSize) or compact (compactSize) instead.
func entrySizes(kind Kind, dim, m int) (leaf, inner int) {
	rect := 16 * dim // 2d float64
	switch kind {
	case UTree:
		// id(8) + addr(6) + shape(2) + MBR + cfb_out(4d float32) + cfb_in(4d float32).
		leaf = 16 + rect + 32*dim
		// child(4) + pad(4) + MBR⊥ + MBR⊤, 2d float32 each.
		inner = 8 + 16*dim
	case UPCR:
		// id(8) + addr(6) + shape(2) + m PCR boxes (pcr(0) doubles as the MBR).
		leaf = 16 + m*rect
		// child(8) + m bounding boxes.
		inner = 8 + m*rect
	}
	return leaf, inner
}

// wideInnerSize is a U-tree intermediate entry's size on a page written
// before UTR6 (no halfInner flag): child(8) + MBR⊥ + MBR⊤ as float64, 72 B
// in 2-D and 104 B in 3-D. decodeNode reads such a page into the float32
// layout, rounded outward; it is never written.
func wideInnerSize(dim int) int { return 8 + 32*dim }

// compactSize is a compact U-tree leaf entry's size: id(8) + addr(6) +
// shape(2, compactEntry set) + MBR, 48 B in 2-D and 64 B in 3-D. Its CFBs
// are its shape's, translated (pcr.Shape.Translate), so it stores none. It
// is the form of a keyed entry whose shape cannot be recentred, and of a
// ball's entry read from a UTR5 or UTR6 file, whose exact centre the page
// does not hold.
func compactSize(dim int) int { return 16 + 16*dim }

// centreSize is a centre U-tree leaf entry's size: id(8) + addr(6) +
// shape(2, centreEntry set) + centre (d float64), 32 B in 2-D and 40 B in
// 3-D. Its shape is recentrable (updf.Recentrer), so its MBR is the
// shape's box at the centre (MBRAt, bit for bit the object's MBR) and its
// CFBs the shape's, translated; it stores neither. It is the form of every
// keyed ball's entry written since UTR7.
func centreSize(dim int) int { return 16 + 8*dim }

// compactEntry and centreEntry flag a compact and a centre leaf entry in
// the shape half of its address word; a full entry has neither, and none
// has both. Shape references stay below them: the table lives in one page.
const (
	compactEntry = 1 << 15
	centreEntry  = 1 << 14
	entryForm    = compactEntry | centreEntry
)

// nodeHeader is the per-page header: level(1) + flags(1) + count(2) + pad(4).
const nodeHeader = 8

// halfInner, in a node header's flags byte, marks a U-tree intermediate
// node whose entries hold their boxes as float32 (entrySizes), as every one
// written since UTR6 does. The byte is 0 on every other page.
const halfInner = 1

// pageBytes is what a node's entries may fill. Capacity and fill are
// counted in bytes, not entries, so one leaf can hold all three forms: a
// full leaf is centre entries to 127 (2-D) or 102 (3-D), compact ones to 85
// or 63, full ones to 36 or 25, or any mix that fits.
const pageBytes = pagefile.PageSize - nodeHeader

// capacities derives node fan-outs in full entries from the page and entry
// sizes.
func capacities(kind Kind, dim, m int) (leafCap, innerCap int) {
	leafSz, innerSz := entrySizes(kind, dim, m)
	return pageBytes / leafSz, pageBytes / innerSz
}

// entrySize is e's size on a node page at the given level: a U-tree leaf
// entry with a shape is centred where it holds its centre and compact
// where it does not (encodeLeafEntry).
func (t *Tree) entrySize(e *entry, leaf bool) int {
	switch {
	case !leaf:
		return t.innerEntrySize
	case t.kind == UTree && e.ctr != nil:
		return t.centreEntrySize
	case t.kind == UTree && e.shape != 0:
		return t.compactEntrySize
	}
	return t.leafEntrySize
}

// entryBytes is what entries take on a node page at the given level.
func (t *Tree) entryBytes(entries []entry, leaf bool) (n int) {
	for i := range entries {
		n += t.entrySize(&entries[i], leaf)
	}
	return n
}
