package core

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/pagefile"
	"repro/internal/pcr"
	"repro/internal/updf"
)

// A tree keeps one pcr.Shape per distinct non-empty ShapeKey among its
// objects — one in all in each of the paper's datasets — and a leaf entry
// names its object's by a 16-bit reference: the shape's fit gives a keyed
// entry its CFBs, its prototype rebuilds a keyed record (encodeObject) and
// a centre entry's MBR (packedNode.leafMBR), and its tables decide a
// candidate before its record is read (pcr.Shape.FilterMarginal). The
// table is append-only — an epoch's (treeState.shapes) is a prefix of its
// successors' — and persisted behind the fixed fields of the metadata
// page, which every commit rewrites: count u16 | count × (length u16 |
// enc), enc being updf.Encode of the prototype: no page or write of its
// own, and crash-consistent with the entries that use it. A uniform circle
// takes 28 bytes there, so the page holds about 145 such shapes. An object
// with an empty ShapeKey, or whose shape the page has no room for, gets
// reference 0.
//
// up and down are the descent's quantile bounds (pcr.Shape.Reach) over
// this shape and every one before it: the larger up and the smaller down
// of each level and dimension, so the last shape of an epoch's table holds
// the bounds for every object of the epoch (rangeQuery).
type shape struct {
	fit      *pcr.Shape
	enc      []byte
	up, down []float64
}

// appendShape enters p, encoded as enc, at the end of a table over catalog
// cat, folding its quantile bounds into the table's.
func appendShape(list []shape, p updf.PDF, enc []byte, cat pcr.Catalog) []shape {
	s := shape{fit: pcr.NewShape(p, cat), enc: enc}
	s.up, s.down = s.fit.Reach()
	if n := len(list); n > 0 {
		s.up, s.down = slices.Clone(s.up), slices.Clone(s.down)
		for k, prev := range list[n-1].up {
			s.up[k] = max(s.up[k], prev)
			s.down[k] = min(s.down[k], list[n-1].down[k])
		}
	}
	return append(list, s)
}

// shapeRef returns the reference of the shape named by key = p.ShapeKey(),
// entering p as its prototype when the shape is new; 0 when there is none
// to give. Writer-side.
func (t *Tree) shapeRef(key string, p updf.PDF) uint16 {
	if ref, ok := t.shapeRefs[key]; ok || key == "" {
		return ref
	}
	enc, err := updf.Encode(p)
	used := metaFixed + 2 + 2 + len(enc)
	for _, s := range t.shapes {
		used += 2 + len(s.enc)
	}
	if err != nil || used > pagefile.PageSize {
		return 0
	}
	t.shapes = appendShape(t.shapes, p, enc, t.cat)
	t.shapeRefs[key] = uint16(len(t.shapes))
	return uint16(len(t.shapes))
}

// setShapes makes list the working table: Open's, or a rollback's.
func (t *Tree) setShapes(list []shape) {
	t.shapes, t.shapeRefs = list, make(map[string]uint16, len(list))
	for i, s := range list {
		t.shapeRefs[s.fit.Proto().ShapeKey()] = uint16(i + 1)
	}
}

// decodeShapes reads the table of a tree of the given dimensionality and
// catalog back, trusting nothing: every prototype must lie within buf,
// decode, have the tree's dimensionality and a ShapeKey.
func decodeShapes(buf []byte, dim int, cat pcr.Catalog) ([]shape, error) {
	var list []shape
	off := 2
	for n := int(binary.LittleEndian.Uint16(buf)); len(list) < n; {
		if off+2 > len(buf) || off+2+int(binary.LittleEndian.Uint16(buf[off:])) > len(buf) {
			return nil, fmt.Errorf("shape %d of %d overruns the page", len(list)+1, n)
		}
		enc := buf[off+2 : off+2+int(binary.LittleEndian.Uint16(buf[off:]))]
		p, err := updf.Decode(enc)
		if err == nil && (p.Dim() != dim || p.ShapeKey() == "") {
			err = fmt.Errorf("%d-dimensional pdf with key %q in a %d-dimensional tree", p.Dim(), p.ShapeKey(), dim)
		}
		if err != nil {
			return nil, fmt.Errorf("shape %d: %w", len(list)+1, err)
		}
		list = appendShape(list, p, enc, cat)
		off += 2 + len(enc)
	}
	return list, nil
}
