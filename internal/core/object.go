// Package core implements the paper's contribution: the U-tree (Section 5)
// — a paged, fully dynamic R*-style index over uncertain objects whose leaf
// entries store conservative functional boxes and whose intermediate
// entries store the two rectangles defining the linear e.MBR(p) function —
// together with the U-PCR comparison structure of the experiments (entries
// store all catalog PCRs) and a sequential-scan baseline.
//
// Both index variants share one paged tree engine; they differ only in
// entry representation, penalty-metric geometry and the leaf filter rules
// (Observation 3 for the U-tree, Observation 2 for U-PCR).
package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/updf"
)

// Object is an uncertain object: an identifier plus its pdf (which carries
// the uncertainty region).
type Object struct {
	ID  int64
	PDF updf.PDF
}

// A data record is one of two forms, told apart by the byte after the id:
//
//	full:  id u64 | updf.Encode(pdf)                 (its type tag, ≥ 1)
//	keyed: id u64 | 0 u8 | shape u16 | centre dim × f64
//
// An object gets the keyed form when its leaf entry holds a shape reference
// and the shape's prototype is a updf.Recentrer: the reader rebuilds the
// pdf as the prototype recentred at the stored centre, bit for bit the pdf
// the full form decodes to. A 2-D ball's record is 27 B against 34 B (38 B
// for a Con-Gau ball), a 3-D ball's 35 B against 42 B; every other object
// — another family, an empty ShapeKey, a shape the metadata page had no
// room for — keeps the full form.
const (
	keyedTag    = 0
	keyedHeader = 8 + 1 + 2 // id, tag, shape reference
)

// encodeObject serializes o's data record, the keyed form when ref names a
// recentrable shape in shapes (the writer's table, which names o's shape by
// ref), else the full form. The writer puts a keyed record straight into
// its page (putKeyed).
func encodeObject(o Object, ref uint16, shapes []shape) ([]byte, error) {
	if ref != 0 && shapes[ref-1].rc != nil {
		rec := make([]byte, keyedSize(o.PDF.Dim()))
		putKeyed(rec, o.ID, ref, o.PDF.Center())
		return rec, nil
	}
	pb, err := updf.Encode(o.PDF)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 8+len(pb))
	binary.LittleEndian.PutUint64(buf, uint64(o.ID))
	copy(buf[8:], pb)
	return buf, nil
}

// keyedSize is a keyed record's size in d dimensions.
func keyedSize(d int) int { return keyedHeader + 8*d }

// putKeyed writes the keyed record of object id, of shape ref and centred
// at ctr, over rec (keyedSize bytes).
func putKeyed(rec []byte, id int64, ref uint16, ctr geom.Point) {
	binary.LittleEndian.PutUint64(rec, uint64(id))
	rec[8] = keyedTag
	binary.LittleEndian.PutUint16(rec[9:], ref)
	for k, v := range ctr {
		putF64(rec, keyedHeader+8*k, v)
	}
}

// decodeObject reverses encodeObject, rebuilding a keyed record's pdf from
// shapes: the table of an epoch in which the record's leaf entry lives (the
// table is append-only, so every later epoch's will do). A keyed record
// whose reference the table cannot resolve, or whose length is not its
// shape's, is updf.ErrCorruptPDF.
func decodeObject(rec []byte, shapes []shape) (Object, error) {
	if len(rec) < 9 {
		return Object{}, fmt.Errorf("%w: object record of %d bytes", updf.ErrCorruptPDF, len(rec))
	}
	id := int64(binary.LittleEndian.Uint64(rec))
	if rec[8] != keyedTag {
		p, err := updf.Decode(rec[8:])
		if err != nil {
			return Object{}, err
		}
		return Object{ID: id, PDF: p}, nil
	}
	if len(rec) < keyedHeader {
		return Object{}, fmt.Errorf("%w: keyed record of %d bytes", updf.ErrCorruptPDF, len(rec))
	}
	ref := int(binary.LittleEndian.Uint16(rec[9:]))
	if ref == 0 || ref > len(shapes) {
		return Object{}, fmt.Errorf("%w: keyed record names shape %d of a table of %d", updf.ErrCorruptPDF, ref, len(shapes))
	}
	proto, rc := shapes[ref-1].pdf, shapes[ref-1].rc
	if rc == nil || len(rec) != keyedHeader+8*proto.Dim() {
		return Object{}, fmt.Errorf("%w: keyed record of %d bytes for shape %d (%s)", updf.ErrCorruptPDF, len(rec), ref, proto.ShapeKey())
	}
	ctr := make(geom.Point, proto.Dim())
	for i := range ctr {
		ctr[i] = math.Float64frombits(binary.LittleEndian.Uint64(rec[keyedHeader+8*i:]))
	}
	return Object{ID: id, PDF: rc.Recentred(ctr)}, nil
}

// objectFromPage decodes a record where it lies in its data page, against
// the reading epoch's shape table: for the query paths, which hold the page
// for as long as they use the object.
func objectFromPage(page []byte, slot uint16, shapes []shape) (Object, error) {
	rec, err := RecordFromPage(page, slot)
	if err != nil {
		return Object{}, err
	}
	return decodeObject(rec, shapes)
}

// putF64 is the little-endian float helper of entry and node serialization.
func putF64(buf []byte, off int, v float64) int {
	binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
	return off + 8
}

// putAddr serializes a leaf entry's data address and, in the two of its 8
// bytes that were zero before UTR3, its shape reference; packedNode.addr
// reads the word back.
func putAddr(buf []byte, off int, a DataAddr, shape uint16) int {
	binary.LittleEndian.PutUint32(buf[off:], uint32(a.Page))
	binary.LittleEndian.PutUint16(buf[off+4:], a.Slot)
	binary.LittleEndian.PutUint16(buf[off+6:], shape)
	return off + 8
}
