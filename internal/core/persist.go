package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/geom"
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
// the only page (besides the committed append page) ever rewritten in
// place, and it is written only after every page of the epoch it names is
// durable.
//
// The magic names the node and record layouts as well as the page: "UTR8"
// data pages are dense — a 2-byte slot, the length implied by the slot
// before it, and varint object ids (datapage.go, object.go): a 2-D keyed
// ball's record and slot 24 B instead of 31 with an id below 2²⁰ — and
// "UTR7" and older had 4-byte slots and u64 ids. Since UTR7
// U-tree leaves may hold centre entries — id, address and centre, flagged
// by centreEntry, the MBR and CFBs those of the entry's recentrable shape
// at the centre: 32 B an entry in 2-D, 127 to a leaf — beside compact and
// full ones; "UTR6" had no centre entry, its keyed balls' entries compact;
// since UTR6 U-tree intermediate entries hold MBR⊥ and MBR⊤ as float32,
// rounded outward, in a node whose header carries the halfInner flag
// (node.go): 40 B an entry instead of 72 in 2-D, 102 to a page instead of
// 56; "UTR5" held them as float64, in a node without the flag, and its
// U-tree leaves may hold compact entries — id, address and MBR, the CFBs
// those of the entry's shape, translated — beside full ones; "UTR4" leaves
// hold every entry in full, its CFB coefficients as float32 (entrySizes),
// and data records may be keyed — id, shape reference and centre, the pdf
// rebuilt from the shape table (object.go); "UTR3" has full records only,
// leaf entries with a shape reference; "UTR2" had zeroes there and where
// the table is — a UTR3 file with an empty table. All six open as UTR8
// files that happen to hold legacy data pages and no centre entry (UTR2
// to UTR6), float64 intermediate nodes (UTR2 to UTR5), no compact entry
// (UTR2 to UTR4) or no keyed record (UTR2/UTR3): RecordFromPage tells a
// legacy data page by its header, and decodeNode reads such an
// intermediate node into the float32 layout, its boxes rounded outward.
// Their first commit stamps them UTR8, so a build that cannot read the new
// layouts refuses the file at open instead of failing mid-query; a node is
// rewritten in them when a mutation first touches it, an entry the file
// holds compact stays compact, since its page has no exact centre and the
// rewrite reads no record, and the first record appended starts a dense
// page. "UTR1" held the coefficients as float64 in entries half again as
// large. There is one codec, so a UTR1 file is refused, never decoded.
// U-PCR nodes are the same in every version.
const (
	metaMagic   = 0x55545238 // "UTR8"
	metaMagicV7 = 0x55545237 // "UTR7"
	metaMagicV6 = 0x55545236 // "UTR6"
	metaMagicV5 = 0x55545235 // "UTR5"
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
	"this version reads only UTR2 to UTR8 (4-byte coefficients, 36 instead of 23 entries per 2-D leaf) — rebuild the index")

// writeMeta serializes the tree's working state to the metadata page. The
// caller writes the batch's data and node pages first (Commit does); the
// page is written in place, straight to the store, because rewriting it
// is exactly how an epoch becomes the committed one.
func (t *Tree) writeMeta() error {
	buf := make([]byte, pagefile.PageSize)
	binary.LittleEndian.PutUint32(buf[0:], metaMagic)
	buf[4] = byte(t.kind)
	buf[5] = byte(t.dim)
	binary.LittleEndian.PutUint16(buf[6:], uint16(t.cat.Size()))
	binary.LittleEndian.PutUint32(buf[8:], uint32(t.rootPage))
	binary.LittleEndian.PutUint32(buf[12:], uint32(t.rootLevel))
	binary.LittleEndian.PutUint64(buf[16:], uint64(t.Len()))
	binary.LittleEndian.PutUint32(buf[24:], uint32(t.appendPage))
	binary.LittleEndian.PutUint64(buf[28:], t.Epoch()+1) // the epoch this write commits
	binary.LittleEndian.PutUint16(buf[metaFixed:], uint16(len(t.shapes)))
	off := metaFixed + 2 // shapeRef keeps the table within the page
	for _, s := range t.shapes {
		binary.LittleEndian.PutUint16(buf[off:], uint16(len(s.enc)))
		off += 2 + copy(buf[off+2:], s.enc)
	}
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
// Runtime options (node cache, k-NN samples) come from opt; structural
// fields (kind, dim, catalog) come from the metadata.
//
// Open walks the recovered tree once, reading each page once: the root
// gives back the root box, the leaves the ID directory, so Delete works on
// the reopened tree as on a new one, and their unshaped entries
// (Tree.unshaped), and reach is the live set
// (ReachablePages) for the caller's open-time leak sweep. A page the walk
// cannot read fails the open.
func Open(store pagefile.Store, metaPage pagefile.PageID, opt Options) (t *Tree, reach map[pagefile.PageID]bool, err error) {
	buf := make([]byte, pagefile.PageSize)
	if err := store.Read(metaPage, buf); err != nil {
		return nil, nil, err
	}
	switch binary.LittleEndian.Uint32(buf[0:]) {
	case metaMagic, metaMagicV7, metaMagicV6, metaMagicV5, metaMagicV4, metaMagicV3, metaMagicV2:
	case metaMagicV1:
		return nil, nil, ErrOldLayout
	default:
		return nil, nil, fmt.Errorf("core: page %d is not a U-tree metadata page", metaPage)
	}
	kind := Kind(buf[4])
	dim := int(buf[5])
	m := int(binary.LittleEndian.Uint16(buf[6:]))
	if dim < 1 || m < 2 || (kind != UTree && kind != UPCR) {
		return nil, nil, fmt.Errorf("core: corrupt metadata (kind=%d dim=%d m=%d)", kind, dim, m)
	}
	if m > MaxCatalogSize {
		return nil, nil, fmt.Errorf("core: corrupt metadata: %w", &pagefile.BadPageError{Page: metaPage,
			Reason: fmt.Sprintf("catalog size %d above the maximum %d", m, MaxCatalogSize)})
	}
	if err := checkFanout(kind, dim, m); err != nil {
		return nil, nil, err
	}
	shapes, err := decodeShapes(buf[metaFixed:], dim, pcr.UniformCatalog(m))
	if err != nil {
		return nil, nil, fmt.Errorf("core: corrupt metadata: %w", &pagefile.BadPageError{Page: metaPage, Reason: err.Error()})
	}
	epoch := binary.LittleEndian.Uint64(buf[28:])
	t = newTree(kind, dim, m, store, metaPage, epoch, opt)
	t.setShapes(shapes)
	t.rootPage = pagefile.PageID(binary.LittleEndian.Uint32(buf[8:]))
	t.rootLevel = int(binary.LittleEndian.Uint32(buf[12:]))
	t.appendPage = pagefile.PageID(binary.LittleEndian.Uint32(buf[24:]))
	// The root box is not persisted: the walk takes it off the root.
	var rows []dirRow
	if reach, t.rootMBR, t.unshaped, err = t.reachable(&rows); err != nil {
		return nil, nil, err
	}
	var dup *dirRow
	if t.dir, dup = directoryOf(rows); dup != nil {
		return nil, nil, &pagefile.BadPageError{Page: dup.leaf, Reason: fmt.Sprintf("a leaf entry names object %d, which an earlier leaf entry names", dup.id)}
	}
	// Publish the recovered state as the committed epoch so snapshots work
	// immediately and the first mutation copy-on-writes the recovered pages.
	t.ep.state = t.workingState()
	return t, reach, nil
}

// ReachablePages walks the working tree and returns every page it
// references: node pages, the data pages held by leaf entries, the current
// append page and the metadata page. This is the set a reopened file
// keeps: pagefile.FileStore.Retain frees every other page — the last
// session's free pages, and the superseded shadow pages a crash between an
// epoch's metadata write and its garbage drain leaves unreferenced. Open
// returns it from its own walk.
func (t *Tree) ReachablePages() (map[pagefile.PageID]bool, error) {
	reach, _, _, err := t.reachable(nil)
	return reach, err
}

// reachable is ReachablePages, appending to rows (when not nil) the ID,
// record address and leaf of every leaf entry on the way, and returning the root's
// box (rootBox) and the count of unshaped leaf entries as well.
func (t *Tree) reachable(rows *[]dirRow) (reach map[pagefile.PageID]bool, root geom.Rect, unshaped int, err error) {
	reach = make(map[pagefile.PageID]bool)
	err = t.walk(t.rootPage, t.rootLevel, func(n *node) error {
		reach[n.page] = true
		if n.page == t.rootPage {
			root = t.rootBox(n)
		}
		unshaped += n.unshaped
		if n.leaf() {
			for i := range n.entries {
				e := &n.entries[i]
				reach[e.addr.Page] = true
				if rows != nil {
					*rows = append(*rows, dirRow{e.id, e.addr, n.page})
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, geom.Rect{}, 0, err
	}
	if t.appendPage != pagefile.InvalidPage {
		reach[t.appendPage] = true
	}
	if t.meta != pagefile.InvalidPage {
		reach[t.meta] = true
	}
	return reach, root, unshaped, nil
}
