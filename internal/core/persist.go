package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/pagefile"
	"repro/internal/pcr"
)

// Tree metadata is persisted in a dedicated page so file-backed indexes can
// be closed and reopened. Layout (little endian):
//
//	magic u32 | kind u8 | dim u8 | catalog u16 |
//	rootPage u32 | rootLevel u32 | size u64 | dataPage u32 | epoch u64 |
//	shape table (shapes.go)
//
// The metadata page is the commit point of the shadow-paging scheme: it is
// the only page (besides slotted data pages) ever rewritten in place, and
// it is written only after every page of the epoch it names is durable.
//
// The magic names the node and record layouts as well as the page: "UTR5"
// U-tree leaves may hold compact entries — id, address and MBR, the CFBs
// those of the entry's shape, translated (node.go) — beside full ones;
// "UTR4" leaves hold every entry in full, its CFB coefficients as float32
// (entrySizes), and data records may be keyed — id, shape reference and
// centre, the pdf rebuilt from the shape table (object.go); "UTR3" has full
// records only, leaf entries with a shape reference; "UTR2" had zeroes
// there and where the table is — a UTR3 file with an empty table. All three
// open as UTR5 files that happen to hold no compact entry (and UTR2/UTR3 no
// keyed record), and their first commit stamps them UTR5, so a build that
// cannot read a compact entry refuses the file at open instead of failing
// mid-query; a leaf is rewritten compact when a mutation first touches it.
// "UTR1" held the coefficients as float64 in entries half again as large.
// There is one codec, so a UTR1 file is refused, never decoded.
const (
	metaMagic   = 0x55545235 // "UTR5"
	metaMagicV4 = 0x55545234 // "UTR4"
	metaMagicV3 = 0x55545233 // "UTR3"
	metaMagicV2 = 0x55545232 // "UTR2"
	metaMagicV1 = 0x55545231 // "UTR1"
	metaFixed   = 36         // bytes before the shape table
)

// ErrOldLayout is returned by Open for an index file written before leaf
// entries moved to float32 CFB coefficients. No reader for that layout is
// kept: rebuild the index from its data.
var ErrOldLayout = errors.New("core: index file has the UTR1 leaf layout (8-byte CFB coefficients); " +
	"this version reads only UTR2 to UTR5 (4-byte coefficients, 36 instead of 23 entries per 2-D leaf) — rebuild the index")

// writeMeta serializes the tree's working state to the metadata page. The
// caller flushes the write buffer first (Commit does); the page is exempted
// from the copy-on-write check because rewriting it in place is exactly
// how an epoch becomes the committed one.
func (t *Tree) writeMeta() error {
	buf := make([]byte, pagefile.PageSize)
	binary.LittleEndian.PutUint32(buf[0:], metaMagic)
	buf[4] = byte(t.kind)
	buf[5] = byte(t.dim)
	binary.LittleEndian.PutUint16(buf[6:], uint16(t.cat.Size()))
	binary.LittleEndian.PutUint32(buf[8:], uint32(t.rootPage))
	binary.LittleEndian.PutUint32(buf[12:], uint32(t.rootLevel))
	binary.LittleEndian.PutUint64(buf[16:], uint64(t.size))
	binary.LittleEndian.PutUint32(buf[24:], uint32(t.data.CurrentPage()))
	binary.LittleEndian.PutUint64(buf[28:], t.vs.Epoch()+1) // the epoch this write commits
	binary.LittleEndian.PutUint16(buf[metaFixed:], uint16(len(t.shapes)))
	off := metaFixed + 2 // shapeRef keeps the table within the page
	for _, s := range t.shapes {
		binary.LittleEndian.PutUint16(buf[off:], uint16(len(s.enc)))
		off += 2 + copy(buf[off+2:], s.enc)
	}
	t.vs.MarkInPlace(t.meta)
	return t.store.Write(t.meta, buf)
}

// MetaPage returns the page Commit persists the tree metadata to — the
// address Open needs — or pagefile.InvalidPage for a tree created without
// Options.Persist.
func (t *Tree) MetaPage() pagefile.PageID { return t.meta }

// Open reconstructs a Tree from a store and its metadata page — after a
// clean close or a crash: the metadata names the last committed epoch, and
// since committed pages are never overwritten in place, that epoch's tree
// is intact whatever partial shadow writes a dying process left behind.
// Runtime options (buffering, refinement) come from opt; structural fields
// (kind, dim, catalog) come from the metadata.
func Open(store pagefile.Store, metaPage pagefile.PageID, opt Options) (*Tree, error) {
	buf := make([]byte, pagefile.PageSize)
	if err := store.Read(metaPage, buf); err != nil {
		return nil, err
	}
	switch binary.LittleEndian.Uint32(buf[0:]) {
	case metaMagic, metaMagicV4, metaMagicV3, metaMagicV2:
	case metaMagicV1:
		return nil, ErrOldLayout
	default:
		return nil, fmt.Errorf("core: page %d is not a U-tree metadata page", metaPage)
	}
	kind := Kind(buf[4])
	dim := int(buf[5])
	m := int(binary.LittleEndian.Uint16(buf[6:]))
	if dim < 1 || m < 2 || (kind != UTree && kind != UPCR) {
		return nil, fmt.Errorf("core: corrupt metadata (kind=%d dim=%d m=%d)", kind, dim, m)
	}
	shapes, err := decodeShapes(buf[metaFixed:], dim, pcr.UniformCatalog(m))
	if err != nil {
		return nil, fmt.Errorf("core: corrupt metadata: %w", &pagefile.BadPageError{Page: metaPage, Reason: err.Error()})
	}
	epoch := binary.LittleEndian.Uint64(buf[28:])
	t, err := newTree(kind, dim, m, store, metaPage, epoch, opt)
	if err != nil {
		return nil, err
	}
	t.setShapes(shapes)
	t.rootPage = pagefile.PageID(binary.LittleEndian.Uint32(buf[8:]))
	t.rootLevel = int(binary.LittleEndian.Uint32(buf[12:]))
	t.size = int(binary.LittleEndian.Uint64(buf[16:]))
	t.data = pagefile.OpenDataFileAt(t.store, pagefile.PageID(binary.LittleEndian.Uint32(buf[24:])))
	// The root box is not persisted: read it off the root once. A root that
	// does not read leaves it zero ("cannot prune"), and every query that
	// descends reports the failure.
	if root, err := t.readNode(t.rootPage, t.rootLevel); err == nil {
		t.rootMBR = t.rootBox(root)
	}
	// Publish the recovered state as the committed epoch so snapshots work
	// immediately and the first mutation copy-on-writes the recovered pages.
	t.vs.SeedState(t.workingState())
	return t, nil
}

// ReachablePages walks the committed tree and returns every page it
// references: node pages, the data pages held by leaf entries, the current
// append page and the metadata page. This is the live set for the
// open-time leak sweep — a crash between an epoch's metadata write and its
// garbage drain leaves superseded shadow pages allocated but unreferenced,
// and the store can return exactly the complement of this set (plus its
// own metadata) to the free list.
//
// A non-nil object receives the id and record address of every leaf entry
// on the way, read off the same leaf pages — the ID directory, recovered at
// open without another page read (RecordMBR turns an address back into
// the MBR Delete descends on).
func (t *Tree) ReachablePages(object func(id int64, addr pagefile.DataAddr)) (map[pagefile.PageID]bool, error) {
	reach := make(map[pagefile.PageID]bool)
	err := t.walk(t.rootPage, t.rootLevel, func(n *node) error {
		reach[n.page] = true
		if n.level == 0 {
			for i := range n.entries {
				e := &n.entries[i]
				if e.addr.Page != pagefile.InvalidPage {
					reach[e.addr.Page] = true
				}
				if object != nil {
					object(e.id, e.addr)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if p := t.data.CurrentPage(); p != pagefile.InvalidPage {
		reach[p] = true
	}
	if t.meta != pagefile.InvalidPage {
		reach[t.meta] = true
	}
	return reach, nil
}
