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

	"repro/internal/pagefile"
	"repro/internal/updf"
)

// Object is an uncertain object: an identifier plus its pdf (which carries
// the uncertainty region).
type Object struct {
	ID  int64
	PDF updf.PDF
}

// encodeObject serializes the detail record stored in the data file: the
// object id and the pdf parameters (from which the uncertainty region is
// recovered).
func encodeObject(o Object) ([]byte, error) {
	pb, err := updf.Encode(o.PDF)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 8+len(pb))
	binary.LittleEndian.PutUint64(buf, uint64(o.ID))
	copy(buf[8:], pb)
	return buf, nil
}

// decodeObject reverses encodeObject.
func decodeObject(rec []byte) (Object, error) {
	if len(rec) < 9 {
		return Object{}, fmt.Errorf("core: object record too short (%d bytes)", len(rec))
	}
	id := int64(binary.LittleEndian.Uint64(rec))
	p, err := updf.Decode(rec[8:])
	if err != nil {
		return Object{}, err
	}
	return Object{ID: id, PDF: p}, nil
}

// objectFromPage decodes a record where it lies in its data page: for the
// query paths, which hold the page for as long as they use the object.
func objectFromPage(page []byte, slot uint16) (Object, error) {
	rec, err := pagefile.RecordFromPage(page, slot)
	if err != nil {
		return Object{}, err
	}
	return decodeObject(rec)
}

// putF64 / getF64 are the little-endian float helpers shared by entry and
// node serialization.
func putF64(buf []byte, off int, v float64) int {
	binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
	return off + 8
}

func getF64(buf []byte, off int) (float64, int) {
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[off:])), off + 8
}

// putAddr / getAddr serialize a leaf entry's data address and, in the two
// of its 8 bytes that were zero before UTR3, its shape reference.
func putAddr(buf []byte, off int, a pagefile.DataAddr, shape uint16) int {
	binary.LittleEndian.PutUint32(buf[off:], uint32(a.Page))
	binary.LittleEndian.PutUint16(buf[off+4:], a.Slot)
	binary.LittleEndian.PutUint16(buf[off+6:], shape)
	return off + 8
}

func getAddr(buf []byte, off int) (pagefile.DataAddr, uint16, int) {
	return pagefile.DataAddr{
		Page: pagefile.PageID(binary.LittleEndian.Uint32(buf[off:])),
		Slot: binary.LittleEndian.Uint16(buf[off+4:]),
	}, binary.LittleEndian.Uint16(buf[off+6:]), off + 8
}
