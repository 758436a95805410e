package core

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/geom"
	"repro/internal/pagefile"
	"repro/internal/pcr"
	"repro/internal/updf"
)

// A tree keeps one prototype pdf per distinct non-empty ShapeKey among its
// objects — one in all in each of the paper's datasets — and a leaf entry
// names its object's by a 16-bit reference, so a range query runs
// refinement's marginal test on the entry alone (pcr.Shape.FilterMarginal,
// which reads the shape's CDF and quadrant tables) and reads a record only
// where that decides nothing. The table is append-only — an
// epoch's (treeState.shapes) is a prefix of its successors' — and persisted
// behind the fixed fields of the metadata page, which every commit rewrites:
// count u16 | count × (length u16 | updf.Encode bytes). An object with an
// empty ShapeKey, or whose shape the page has no room for, gets reference 0.
//
// The prototype is also what every keyed leaf entry's CFBs are fitted from
// (leafEntry): fit is the shape's cfb_out/cfb_in pair, fitted once about the
// prototype's centre, so an object's entry depends on the persisted table
// and the object alone. And a recentrable prototype is what a keyed data
// record is rebuilt from (encodeObject), and a centre leaf entry's MBR
// (packedNode.leafMBR): the record and the entry hold the object's centre
// and the reference, every reader the table.
//
// up and down are the descent's quantile bounds (pcr.Shape.Reach) over
// this shape and every one before it: the larger up and the smaller down
// of each level and dimension. The table is append-only, so the last
// shape of an epoch's table holds the bounds for every object of the
// epoch, and a query reads them there (rangeQuery).
type shape struct {
	pdf      updf.PDF
	mbr      geom.Rect      // pdf.MBR()
	enc      []byte         // updf.Encode(pdf)
	fit      *pcr.Shape     // pcr.NewShape(pdf, the tree's catalog)
	rc       updf.Recentrer // pdf, where it is one; else nil
	up, down []float64
}

// appendShape enters p, encoded as enc, at the end of a table over catalog
// cat, folding its quantile bounds into the table's.
func appendShape(list []shape, p updf.PDF, enc []byte, cat pcr.Catalog) []shape {
	rc, _ := p.(updf.Recentrer)
	s := shape{pdf: p, mbr: p.MBR(), enc: enc, fit: pcr.NewShape(p, cat), rc: rc}
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
		t.shapeRefs[s.pdf.ShapeKey()] = uint16(i + 1)
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
