package core

import (
	"fmt"
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
// prototype in the tree's shape table (0: none); a U-tree leaf carries out/in
// CFBs, a U-PCR leaf carries pcrs (length m, pcrs[0] == mbr).
//
// Intermediate entries: child is set and boxes carries the bounding
// geometry — length 2 for the U-tree ([MBR⊥, MBR⊤], interpolated linearly
// in p) and length m for U-PCR (one bounding rectangle per catalog value).
//
// The coordinate slices are read-only. An expanded node's entries lie over
// its packedNode's slabs, and entries are copied by value between nodes
// (split, reinsertion), so a write through mbr, out, in, pcrs or boxes
// would reach other entries. Geometry changes by replacing the slice
// (refreshPath); the only in-place writers, interpInto and UnionInPlace,
// work on scratch and on cloneBoxes copies.
type entry struct {
	// Leaf fields.
	id    int64
	addr  pagefile.DataAddr
	mbr   geom.Rect
	out   pcr.CFB
	in    pcr.CFB
	pcrs  []geom.Rect
	shape uint16 // here, in the word child half fills, the struct does not grow

	// Intermediate fields.
	child pagefile.PageID
	boxes []geom.Rect
}

// boundary returns the entry's representative boxes used to build parent
// entries: for U-tree entries 2 boxes (at p_1 and p_m), for U-PCR entries m
// boxes (one per catalog value).
func (t *Tree) boundary(e *entry, leaf bool) []geom.Rect {
	if !leaf {
		return e.boxes
	}
	if t.kind == UTree {
		return []geom.Rect{e.out.Rect(0), e.out.Rect(t.cat.Max())}
	}
	return e.pcrs
}

// boxAt evaluates an entry's bounding rectangle at catalog index j. For
// 2-box (U-tree) geometry this interpolates the linear e.MBR(p) function of
// Equation 15 (p_1 = 0 makes α = MBR⊥ and β = (MBR⊥−MBR⊤)/p_m); for m-box
// geometry it returns the stored rectangle.
func (t *Tree) boxAt(boxes []geom.Rect, j int) geom.Rect {
	if len(boxes) == t.cat.Size() {
		return boxes[j]
	}
	if len(boxes) != 2 {
		panic(fmt.Sprintf("core: entry with %d boxes (want 2 or %d)", len(boxes), t.cat.Size()))
	}
	f := t.cat.Value(j) / t.cat.Max()
	return interpRect(boxes[0], boxes[1], f)
}

// boxIntersectsAt reports whether r intersects boxAt(boxes, j) without
// materializing the interpolated rectangle — the allocation-free form of
// r.Intersects(t.boxAt(boxes, j)) used by the descent's Observation 4
// pruning. The interpolation arithmetic is written exactly as interpRect's
// and the comparison exactly as geom.Rect.Intersects', so the outcome is
// bit-identical to the allocating composition.
func (t *Tree) boxIntersectsAt(r geom.Rect, boxes []geom.Rect, j int) bool {
	if len(boxes) == t.cat.Size() {
		return r.Intersects(boxes[j])
	}
	if len(boxes) != 2 {
		panic(fmt.Sprintf("core: entry with %d boxes (want 2 or %d)", len(boxes), t.cat.Size()))
	}
	f := t.cat.Value(j) / t.cat.Max()
	a, b := boxes[0], boxes[1]
	for i := range r.Lo {
		lo := a.Lo[i] + (b.Lo[i]-a.Lo[i])*f
		hi := a.Hi[i] + (b.Hi[i]-a.Hi[i])*f
		if r.Hi[i] < lo || hi < r.Lo[i] {
			return false
		}
	}
	return true
}

// minDistAt is MINDIST(q, boxAt(boxes, j)) without materializing the
// interpolated rectangle — the allocation-free form of
// minDist(q, t.boxAt(boxes, j)) used by the NN frontier. Same
// bit-identical-arithmetic contract as boxIntersectsAt.
func (t *Tree) minDistAt(q geom.Point, boxes []geom.Rect, j int) float64 {
	if len(boxes) == t.cat.Size() {
		return minDist(q, boxes[j])
	}
	if len(boxes) != 2 {
		panic(fmt.Sprintf("core: entry with %d boxes (want 2 or %d)", len(boxes), t.cat.Size()))
	}
	f := t.cat.Value(j) / t.cat.Max()
	a, b := boxes[0], boxes[1]
	var s float64
	for i := range q {
		lo := a.Lo[i] + (b.Lo[i]-a.Lo[i])*f
		hi := a.Hi[i] + (b.Hi[i]-a.Hi[i])*f
		var d float64
		if q[i] < lo {
			d = lo - q[i]
		} else if q[i] > hi {
			d = q[i] - hi
		}
		s += d * d
	}
	return math.Sqrt(s)
}

// boxesAt writes boxAt(boxes, j) for every catalog index j into dst[j],
// whose coordinate slices the caller provides.
func (t *Tree) boxesAt(dst, boxes []geom.Rect) {
	m := t.cat.Size()
	if len(boxes) != m && len(boxes) != 2 {
		panic(fmt.Sprintf("core: entry with %d boxes (want 2 or %d)", len(boxes), m))
	}
	for j := 0; j < m; j++ {
		if len(boxes) == m {
			copy(dst[j].Lo, boxes[j].Lo)
			copy(dst[j].Hi, boxes[j].Hi)
		} else {
			interpInto(dst[j], boxes[0], boxes[1], t.cat.Value(j)/t.cat.Max())
		}
	}
}

// interpRect linearly interpolates each face: (1−f)·a + f·b.
func interpRect(a, b geom.Rect, f float64) geom.Rect {
	d := a.Dim()
	r := geom.Rect{Lo: make(geom.Point, d), Hi: make(geom.Point, d)}
	interpInto(r, a, b, f)
	return r
}

// interpInto is interpRect into dst's coordinate slices.
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

// cloneBoxes deep-copies a boundary set.
func cloneBoxes(b []geom.Rect) []geom.Rect {
	out := make([]geom.Rect, len(b))
	for i := range b {
		out[i] = b[i].Clone()
	}
	return out
}

// entrySizes returns the on-page sizes (bytes) of leaf and intermediate
// entries for the given kind, dimensionality and catalog size. Rectangles
// are float64 everywhere; only the CFB coefficients of a U-tree leaf entry
// are float32, stored as the bits pcr.CFB holds in memory (see pcr.CFB for
// why half width is safe there, and the README's "Leaf layout" note for
// why the MBR, the intermediate entries and U-PCR's exact faces are not).
// 2-D: 112 B per U-tree leaf entry, 36 per page; 3-D: 160 B, 25 per page.
func entrySizes(kind Kind, dim, m int) (leaf, inner int) {
	rect := 16 * dim // 2d float64
	switch kind {
	case UTree:
		// id(8) + addr(6) + shape(2) + MBR + cfb_out(4d float32) + cfb_in(4d float32).
		leaf = 16 + rect + 32*dim
		// child(8) + MBR⊥ + MBR⊤.
		inner = 8 + 2*rect
	case UPCR:
		// id(8) + addr(6) + shape(2) + m PCR boxes (pcr(0) doubles as the MBR).
		leaf = 16 + m*rect
		// child(8) + m bounding boxes.
		inner = 8 + m*rect
	}
	return leaf, inner
}

// nodeHeader is the per-page header: level(1) + pad(1) + count(2) + pad(4).
const nodeHeader = 8

// capacities derives node fan-outs from the page and entry sizes.
func capacities(kind Kind, dim, m int) (leafCap, innerCap int) {
	leafSz, innerSz := entrySizes(kind, dim, m)
	leafCap = (pagefile.PageSize - nodeHeader) / leafSz
	innerCap = (pagefile.PageSize - nodeHeader) / innerSz
	return leafCap, innerCap
}
