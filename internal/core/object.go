// Package core implements the paper's contribution: the U-tree (Section 5)
// — a paged, fully dynamic R*-style index over uncertain objects whose leaf
// entries store conservative functional boxes and whose intermediate
// entries store the two rectangles defining the linear e.MBR(p) function —
// together with the U-PCR comparison structure of the experiments (entries
// store all catalog PCRs).
//
// Both index variants share one paged tree engine; they differ only in
// entry representation, penalty-metric geometry and the leaf filter rules
// (Observation 3 for the U-tree, Observation 2 for U-PCR).
package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

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
//	full:  id | updf.Encode(pdf)                 (its type tag, ≥ 1)
//	keyed: id | 0 u8 | shape u16 | centre dim × f64
//
// The id is a zigzag varint (binary.AppendVarint) — a u64 in the records of
// a UTR2–UTR7 file's legacy pages (datapage.go), which decodeObject reads
// and nothing writes. An object gets the keyed form when its leaf entry
// holds a shape reference and the shape's prototype is a updf.Recentrer:
// the reader rebuilds the pdf as the prototype recentred at the stored
// centre, bit for bit the pdf the full form decodes to. With an id below
// 2²⁰ a 2-D ball's record is 22 B against 29 B (33 B for a Con-Gau ball), a
// 3-D ball's 30 B against 37 B; every other object — another family, an
// empty ShapeKey, a shape the metadata page had no room for — keeps the
// full form.
const (
	keyedTag    = 0
	keyedHeader = 1 + 2 // tag, shape reference
)

// encodeObject serializes o's data record, the keyed form when ref names a
// recentrable shape in shapes (the writer's table, which names o's shape by
// ref), else the full form. The writer puts a keyed record straight into
// its page (putKeyed).
func encodeObject(o Object, ref uint16, shapes []shape) ([]byte, error) {
	if ref != 0 && shapes[ref-1].fit.Recentrer() != nil {
		rec := make([]byte, keyedSize(o.ID, o.PDF.Dim()))
		putKeyed(rec, o.ID, ref, appendCentre(nil, o.PDF.Center()))
		return rec, nil
	}
	pb, err := updf.Encode(o.PDF)
	if err != nil {
		return nil, err
	}
	return append(binary.AppendVarint(make([]byte, 0, binary.MaxVarintLen64+len(pb)), o.ID), pb...), nil
}

// keyedSize is the size of object id's keyed record in d dimensions.
func keyedSize(id int64, d int) int { return varintLen(id) + keyedHeader + 8*d }

// varintLen is the length of id as binary.AppendVarint writes it.
func varintLen(id int64) int {
	ux := uint64(id)<<1 ^ uint64(id>>63) // zigzag
	return (bits.Len64(ux|1) + 6) / 7
}

// appendCentre appends ctr as a keyed record and a centre leaf entry hold
// it: little-endian float64s.
func appendCentre(b []byte, ctr geom.Point) []byte {
	for _, v := range ctr {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// putKeyed writes the keyed record of object id, of shape ref and centred
// at ctr — its bytes, appendCentre's — over rec (keyedSize bytes).
func putKeyed(rec []byte, id int64, ref uint16, ctr []byte) {
	n := binary.PutVarint(rec, id)
	rec[n] = keyedTag
	binary.LittleEndian.PutUint16(rec[n+1:], ref)
	copy(rec[n+keyedHeader:], ctr)
}

// decodeObject reverses encodeObject, rebuilding a keyed record's pdf from
// shapes: the table of an epoch in which the record's leaf entry lives (the
// table is append-only, so every later epoch's will do). legacy says the
// record came off a legacy page (RecordFromPage): its id is a u64. A
// varint id that is not the shortest encoding of its value, a keyed record
// whose reference the table cannot resolve, or whose length is not its
// shape's, is updf.ErrCorruptPDF.
func decodeObject(rec []byte, legacy bool, shapes []shape) (Object, error) {
	id, n := int64(0), 8 // a legacy record's u64
	switch {
	case !legacy:
		if id, n = binary.Varint(rec); n > 1 && rec[n-1] == 0 {
			n = 0 // a padded varint: encodeObject would not write it
		}
	case len(rec) > n:
		id = int64(binary.LittleEndian.Uint64(rec))
	}
	if n <= 0 || len(rec) <= n {
		return Object{}, fmt.Errorf("%w: object record of %d bytes", updf.ErrCorruptPDF, len(rec))
	}
	body := rec[n:]
	if body[0] != keyedTag {
		p, err := updf.Decode(body)
		if err != nil {
			return Object{}, err
		}
		return Object{ID: id, PDF: p}, nil
	}
	if len(body) < keyedHeader {
		return Object{}, fmt.Errorf("%w: keyed record of %d bytes", updf.ErrCorruptPDF, len(rec))
	}
	ref := int(binary.LittleEndian.Uint16(body[1:]))
	if ref == 0 || ref > len(shapes) {
		return Object{}, fmt.Errorf("%w: keyed record names shape %d of a table of %d", updf.ErrCorruptPDF, ref, len(shapes))
	}
	proto, rc := shapes[ref-1].fit.Proto(), shapes[ref-1].fit.Recentrer()
	if rc == nil || len(body) != keyedHeader+8*proto.Dim() {
		return Object{}, fmt.Errorf("%w: keyed record of %d bytes for shape %d (%s)", updf.ErrCorruptPDF, len(rec), ref, proto.ShapeKey())
	}
	ctr := make(geom.Point, proto.Dim())
	for i := range ctr {
		ctr[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[keyedHeader+8*i:]))
	}
	return Object{ID: id, PDF: rc.Recentred(ctr)}, nil
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
