package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"repro/internal/geom"
	"repro/internal/pagefile"
	"repro/internal/pcr"
)

// node is the edit form of a tree page: the entries the writers (insert,
// delete, split, condense, the walks) edit and encodeNode writes back.
// readNode builds it by expanding a privately decoded packedNode, so its
// entries lie over slabs no one else holds.
type node struct {
	page    pagefile.PageID
	level   int // 0 = leaf
	entries []entry
	// unshaped is how many of the page's U-tree leaf entries name no shape
	// of the table, or are stored full (Tree.unshaped): as read, and as
	// writeNode last wrote them.
	unshaped int
}

func (n *node) leaf() bool { return n.level == 0 }

// packedNode is the read form of a tree page and the value the decoded-node
// cache holds: a checked view of the page's own bytes. decodeNode checks the
// page once, when it is read; the accessors then read each field where the
// page holds it. Where the store lends its pages — a bare MemStore, or a
// bare FileStore on unix — the bytes are the store's committed page
// (readCommitted: the MemStore's buffer, the file's read-only mapping), so
// a cached leaf costs this 128-byte struct; otherwise they are the
// 4,096-byte buffer the page was read into.
//
//   - buf: the page — level, flags, count, then the entries as encodeNode
//     lays them out. A leaf entry's id and addr‖shape word are its first 16
//     bytes, an intermediate entry's child its first 4.
//   - f64: buf's 8-byte words as float64s, f64[k] at byte 8k (floats).
//     Every entry size is a multiple of 8 and the header is 8 bytes, so
//     every float64 rectangle — a U-tree leaf's MBR, a U-PCR leaf's m PCRs
//     (pcr(0) is the MBR), a U-PCR intermediate entry's m bounding boxes —
//     is a run of f64, and so is a centre entry's centre (centre), in
//     place of an MBR (leafMBR). A full U-tree leaf entry's cfb_out‖cfb_in
//     is a run of float32s after its MBR, laid over buf when read (cfbs);
//     a compact or centre entry has none (its faces are its shape's). A
//     U-tree intermediate entry's MBR⊥‖MBR⊤ is a run of float32s after its
//     child (box32).
//   - stride: the size of every entry; offs, for a leaf holding more than
//     one U-tree entry form, each entry's byte offset instead.
//   - rects: for U-PCR nodes, the nb rectangles of each entry laid over f64
//     — the []geom.Rect the descent and the U-PCR filter take.
//
// The accessors return slices of buf, capped so that an append cannot
// reach a neighbour. Nothing writes through them: a cached node is shared
// by every lock-free reader, and its bytes may be the store's.
type packedNode struct {
	page            pagefile.PageID
	dim, nb, stride uint16
	level, count    int
	offs            []uint16
	buf             []byte
	f64             []float64
	rects           []geom.Rect
}

func (p *packedNode) leaf() bool { return p.level == 0 }

// at is entry i's byte offset on the page.
func (p *packedNode) at(i int) int {
	if p.offs != nil {
		return int(p.offs[i])
	}
	return nodeHeader + i*int(p.stride)
}

// id is leaf entry i's object id.
func (p *packedNode) id(i int) int64 { return int64(binary.LittleEndian.Uint64(p.buf[p.at(i):])) }

// addr is leaf entry i's record address and shape reference.
func (p *packedNode) addr(i int) (DataAddr, uint16) {
	w := binary.LittleEndian.Uint64(p.buf[p.at(i)+8:])
	return DataAddr{Page: pagefile.PageID(w), Slot: uint16(w >> 32)}, uint16(w>>48) &^ entryForm
}

// form is leaf entry i's form flag: compactEntry, centreEntry, or 0 for a
// full entry.
func (p *packedNode) form(i int) uint16 {
	return binary.LittleEndian.Uint16(p.buf[p.at(i)+14:]) & entryForm
}

// centred reports whether leaf entry i is in the centre form: id, address
// and centre, its MBR and faces its shape's at the centre.
func (p *packedNode) centred(i int) bool { return p.form(i) == centreEntry }

// child is intermediate entry i's child page.
func (p *packedNode) child(i int) pagefile.PageID {
	return pagefile.PageID(binary.LittleEndian.Uint32(p.buf[p.at(i):]))
}

// mbr is leaf entry i's MBR where the page holds one: a full or compact
// U-tree entry's, a U-PCR entry's. leafMBR reads every form.
func (p *packedNode) mbr(i int) geom.Rect { return p.rect(p.at(i) + 16) }

// centre is centre entry i's centre.
func (p *packedNode) centre(i int) geom.Point {
	d, k := int(p.dim), (p.at(i)+16)/8
	return p.f64[k : k+d : k+d]
}

// leafMBR is leaf entry i's MBR as a reader of an epoch whose shape table is
// shapes sees it: where the page holds it, or for a centre entry its shape's
// box at the centre, written into dst's coordinates without allocating
// (updf.Recentrer.MBRAt) — bit for bit the MBR the object's pdf has. ok is
// false for a centre entry whose reference names no recentrable shape in
// shapes: it has no box (CheckInvariants reports it).
func (p *packedNode) leafMBR(i int, shapes []shape, dst geom.Rect) (mbr geom.Rect, ok bool) {
	if !p.centred(i) {
		return p.mbr(i), true
	}
	_, ref := p.addr(i)
	if int(ref) > len(shapes) || shapes[ref-1].fit.Recentrer() == nil {
		return geom.Rect{}, false
	}
	shapes[ref-1].fit.Recentrer().MBRAt(p.centre(i), dst)
	return dst, true
}

// rect is the rectangle at byte off of the page.
func (p *packedNode) rect(off int) geom.Rect {
	d, k := int(p.dim), off/8
	c := p.f64[k : k+2*d : k+2*d]
	return geom.Rect{Lo: c[:d:d], Hi: c[d:]}
}

// cfbs is full U-tree leaf entry i's cfb_out and cfb_in.
func (p *packedNode) cfbs(i int) (out, in pcr.CFB) {
	w := 4 * int(p.dim)
	c := floats[float32](p.buf, p.at(i)+16+16*int(p.dim), 2*w)
	return pcr.CFB(c[:w:w]), pcr.CFB(c[w:])
}

// box32 is U-tree intermediate entry i's MBR⊥ and MBR⊤, 4d float32s laid
// out lo⊥ | hi⊥ | lo⊤ | hi⊤.
func (p *packedNode) box32(i int) []float32 {
	n := 4 * int(p.dim)
	return floats[float32](p.buf, p.at(i)+8, n)[:n:n]
}

// boxes is the nb rectangles of U-PCR entry i.
func (p *packedNode) boxes(i int) []geom.Rect {
	nb := int(p.nb)
	return p.rects[i*nb : (i+1)*nb : (i+1)*nb]
}

// readNode fetches the page a descent expects at level and expands it into
// edit form over the working shape table, counting one logical node access.
// A node at another level is refused (checkLevel), so no walk that reads its
// nodes here can loop. It always decodes a private copy of the page: the
// mutation paths edit the returned node's entries, and encodeNode clears a
// dirty buffer before it re-encodes it, so entries laid over the dirty
// buffer would be destroyed, and entries laid over the store's page or a
// node the cache shares would share their bytes with the readers. Query
// paths go through fetchNode, which consults the cache first.
//
// readNode is the writer's: it serves a page the open batch has written
// from the dirty map (a hit) and reads any other from the store (a miss).
func (t *Tree) readNode(id pagefile.PageID, level int) (*node, error) {
	t.nodeReads.Add(1)
	buf := make([]byte, pagefile.PageSize)
	if dirty, ok := t.dirty[id]; ok {
		t.dirtyHits.Add(1)
		copy(buf, dirty)
	} else {
		t.dirtyMisses.Add(1)
		if err := t.store.Read(id, buf); err != nil {
			return nil, nodeReadErr(id, err)
		}
	}
	p, err := t.decodeAt(id, level, buf)
	if err != nil {
		return nil, err
	}
	return t.expand(p, t.shapes), nil
}

// expand is p's edit form, its entries laid over p's page (see entry). A
// keyed U-tree leaf entry comes out centred where the page holds its
// centre and compact otherwise — a UTR4 file's are full — so the next write
// of its node stores it so, and its faces are its shape's in the table, its
// MBR packedNode.leafMBR's (a centre entry's in one slab for the node). One
// whose reference is beyond the table, which CheckInvariants reports, has
// no faces but its MBR; a centre entry with no recentrable shape has its
// centre for one.
//
// It counts the leaf's unshaped entries (node.unshaped): those without
// faces from the table, and those the page stores full.
//
// A U-tree intermediate entry's float32 boxes widen into one float64 slab
// for the node: the writer's arithmetic (chooseSubtree, unionBoundary) is
// float64, and a widened box is exactly what the page holds.
func (t *Tree) expand(p *packedNode, shapes []shape) *node {
	n := &node{page: p.page, level: p.level, entries: make([]entry, p.count)}
	var wide, mbrs []geom.Rect
	if !p.leaf() && t.kind == UTree {
		wide = newBoxes(2*p.count, t.dim)
	}
	for i := range n.entries {
		e := &n.entries[i]
		switch {
		case wide != nil:
			e.child, e.boxes = p.child(i), wide[2*i:2*i+2:2*i+2]
			c, d := p.box32(i), t.dim
			for k := range d {
				e.boxes[0].Lo[k], e.boxes[0].Hi[k] = float64(c[k]), float64(c[d+k])
				e.boxes[1].Lo[k], e.boxes[1].Hi[k] = float64(c[2*d+k]), float64(c[3*d+k])
			}
		case !p.leaf():
			e.child, e.boxes = p.child(i), p.boxes(i)
		case t.kind == UTree:
			e.id = p.id(i)
			e.addr, e.shape = p.addr(i)
			if e.shape != 0 && int(e.shape) <= len(shapes) {
				e.fit = shapes[e.shape-1].fit
			}
			var dst geom.Rect
			switch {
			case p.centred(i):
				if mbrs == nil {
					mbrs = newBoxes(p.count, t.dim)
				}
				e.ctr, dst = p.centre(i), mbrs[i]
			case e.shape == 0:
				e.out, e.in = p.cfbs(i)
			}
			var ok bool
			if e.mbr, ok = p.leafMBR(i, shapes, dst); !ok {
				e.mbr, e.fit = geom.Rect{Lo: e.ctr, Hi: e.ctr}, nil
			}
			if e.fit == nil || p.form(i) == 0 {
				n.unshaped++
			}
		default:
			e.id, e.boxes = p.id(i), p.boxes(i)
			e.addr, e.shape = p.addr(i)
			e.mbr = e.boxes[0]
		}
	}
	return n
}

// maybeCacheNode offers a freshly decoded node to the decoded-node cache.
// Only committed pages are cached — their bytes are COW-immutable while
// live, so the decoded form is shareable across lock-free readers; a
// shadow (fresh) page, the metadata page and the append page are written
// in place and bypass the cache (shareable). Callers must not mutate p
// after offering it.
func (t *Tree) maybeCacheNode(p *packedNode) {
	if t.ncache != nil && t.shareable(p.page) {
		t.ncache.put(p.page, p)
	}
}

// writeNode serializes a node to its page — copy-on-write: a node whose
// page was live at the last commit is relocated to a fresh shadow page
// (the old page stays byte-intact for pinned snapshots and is reclaimed by
// the epoch GC once no snapshot can reference it). Callers must propagate
// n.page into the parent entry afterwards (refreshPath, split and condense
// do); the root's relocation updates t.rootPage here, and every write of
// the root page records its box (rootBox) for the next commit. A page
// allocated since the last commit is rewritten in place. The bytes stay in
// the dirty map, in one buffer a page, until Commit writes them once.
func (t *Tree) writeNode(n *node) error {
	t.nodeWrites.Add(1)
	if !t.isFresh(n.page) {
		old := n.page
		id, err := t.allocPage()
		if err != nil {
			return fmt.Errorf("core: shadowing node %d: %w", old, err)
		}
		n.page = id
		if old == t.rootPage {
			t.rootPage = id
		}
		if err := t.freePage(old); err != nil {
			return fmt.Errorf("core: retiring node %d: %w", old, err)
		}
	}
	buf := t.dirty[n.page]
	if buf == nil {
		buf = make([]byte, pagefile.PageSize)
	}
	if err := t.encodeNode(n, buf); err != nil {
		return err
	}
	if n.leaf() && t.kind == UTree {
		c := 0
		for i := range n.entries {
			if n.entries[i].fit == nil {
				c++
			}
		}
		t.unshaped += c - n.unshaped
		n.unshaped = c
	}
	t.dirty[n.page] = buf
	if n.page == t.rootPage {
		t.rootMBR = t.rootBox(n)
	}
	return nil
}

// allocNode creates an empty node at the given level.
func (t *Tree) allocNode(level int) (*node, error) {
	id, err := t.allocPage()
	if err != nil {
		return nil, fmt.Errorf("core: allocating node: %w", err)
	}
	return &node{page: id, level: level}, nil
}

// encodeNode writes n over buf, whatever buf held, so a page re-encoded in
// a batch has the bytes of a first encode.
func (t *Tree) encodeNode(n *node, buf []byte) error {
	if b := t.entryBytes(n.entries, n.leaf()); b > pageBytes {
		return fmt.Errorf("core: node %d holds %d entries in %d bytes, capacity %d", n.page, len(n.entries), b, pageBytes)
	}
	clear(buf)
	t.putHeader(buf, n.level, len(n.entries))
	off := nodeHeader
	for i := range n.entries {
		e := &n.entries[i]
		if n.leaf() {
			off += t.encodeLeafEntry(e, buf[off:])
		} else {
			t.encodeInnerEntry(buf[off:off+t.innerEntrySize], e.child, e.boxes)
			off += t.innerEntrySize
		}
	}
	return nil
}

// putHeader writes a node page's header: its level, flags and entry count.
func (t *Tree) putHeader(buf []byte, level, count int) {
	buf[0] = byte(level)
	if level > 0 && t.kind == UTree {
		buf[1] = halfInner
	}
	binary.LittleEndian.PutUint16(buf[2:], uint16(count))
}

// decodeNode checks page bytes and returns the packedNode that reads them.
// It is the only code that reads a node's layout, and it checks everything
// a reader relies on, once: the header flags, the entry count against
// capacity, that every entry lies inside the page, that a compact or
// centre entry names a shape, has one form flag and sits in a U-tree leaf.
// Where buf is 8-byte aligned and the host little-endian, the node views
// buf itself, which is then the node's: one allocation, two for a leaf
// holding more than one entry form, one more for the rects of a U-PCR
// node. Otherwise it views a copy of the bytes its
// entries use (nativeCopy), one allocation more. A U-tree intermediate page
// written before UTR6, its boxes float64 (no halfInner flag), is read into
// a copy in the float32 layout, its faces rounded outward (halveInner).
func (t *Tree) decodeNode(id pagefile.PageID, buf []byte) (*packedNode, error) {
	p := &packedNode{
		page: id, level: int(buf[0]), count: int(binary.LittleEndian.Uint16(buf[2:])),
		dim: uint16(t.dim), nb: uint16(t.innerBoxes()), stride: uint16(t.innerEntrySize),
	}
	// A structurally impossible page is corruption the checksum layer did
	// not catch; type it like one.
	bad := func(reason string, a ...any) error {
		return fmt.Errorf("core: corrupt node %d: %w", id, &pagefile.BadPageError{Page: id, Reason: fmt.Sprintf(reason, a...)})
	}
	// A U-tree leaf entry's one rectangle is its MBR, beside two CFBs unless
	// it is compact, or its centre where it is centred; the entries' flags
	// say which size each has.
	utreeLeaf := p.leaf() && t.kind == UTree
	utreeInner := !p.leaf() && t.kind == UTree
	wide := false // a U-tree intermediate page written before UTR6
	switch flags := buf[1]; {
	case flags == halfInner && utreeInner:
	case flags == 0 && utreeInner:
		wide, p.stride = true, uint16(wideInnerSize(t.dim))
	case flags != 0:
		return nil, bad("header flags %#x on a level-%d %v node", flags, p.level, t.kind)
	}
	switch {
	case utreeLeaf:
		p.nb, p.stride = 1, uint16(t.centreEntrySize)
	case p.leaf():
		p.stride = uint16(t.leafEntrySize)
	}
	if stride := int(p.stride); p.count*stride > pageBytes {
		return nil, bad("entry count %d exceeds capacity %d", p.count, pageBytes/stride)
	}
	used := nodeHeader + p.count*int(p.stride) // the bytes the entries end at
	for i := 0; i < p.count && p.leaf() && !utreeLeaf; i++ {
		if binary.LittleEndian.Uint16(buf[p.at(i)+14:])&entryForm != 0 {
			return nil, bad("compact or centre entry %d in a %v leaf", i, t.kind)
		}
	}
	for i, at := 0, nodeHeader; i < p.count && utreeLeaf; i++ {
		sz := t.leafEntrySize
		switch shape := binary.LittleEndian.Uint16(buf[at+14:]); {
		case shape&entryForm == entryForm:
			return nil, bad("leaf entry %d flagged both compact and centred", i)
		case shape&entryForm != 0 && shape&^entryForm == 0:
			return nil, bad("compact or centre entry %d names no shape", i)
		case shape&compactEntry != 0:
			sz = t.compactEntrySize
		case shape&centreEntry != 0:
			sz = t.centreEntrySize
		}
		switch {
		case i == 0:
			p.stride = uint16(sz)
		case p.offs == nil && sz != int(p.stride):
			p.offs = make([]uint16, p.count)
			for j := range i {
				p.offs[j] = uint16(nodeHeader + j*int(p.stride))
			}
		}
		if p.offs != nil {
			p.offs[i] = uint16(at)
		}
		if at += sz; at+(p.count-i-1)*t.centreEntrySize > pagefile.PageSize {
			return nil, bad("%d entries overrun the page", p.count)
		}
		used = at
	}
	switch {
	case wide:
		p.halveInner(buf, t.innerEntrySize)
	case littleEndian && floats[float64](buf, 0, 1) != nil:
		p.buf = buf
	default:
		p.nativeCopy(buf[:used], utreeLeaf)
	}
	p.f64 = floats[float64](p.buf, 0, len(p.buf)/8)
	if t.kind == UPCR {
		off, nb := 8, t.innerBoxes()
		if p.leaf() {
			off = 16
		}
		p.rects = make([]geom.Rect, nb*p.count)
		for k := range p.rects {
			p.rects[k] = p.rect(p.at(k/nb) + off + k%nb*16*t.dim)
		}
	}
	return p, nil
}

// halveInner makes p, a U-tree intermediate node read off a page written
// before UTR6, view a copy of it in the float32 layout: child, pad, and
// each float64 face rounded outward (pcr.Round32), so every box contains the
// one the page holds and the node reads as one this version writes.
func (p *packedNode) halveInner(page []byte, stride int) {
	b := make([]byte, nodeHeader+p.count*stride+7)
	for floats[float64](b, 0, 1) == nil {
		b = b[1:]
	}
	p.buf = b[:nodeHeader+p.count*stride]
	copy(p.buf[:nodeHeader], page)
	p.buf[1] = halfInner
	d, wide := int(p.dim), int(p.stride)
	p.stride = uint16(stride)
	for i := 0; i < p.count; i++ {
		from, at := nodeHeader+i*wide, p.at(i)
		copy(p.buf[at:at+8], page[from:from+8])
		c := p.box32(i)
		for k := range c {
			// Faces run lo⊥ | hi⊥ | lo⊤ | hi⊤, d each: odd runs are high.
			c[k] = pcr.Round32(math.Float64frombits(binary.LittleEndian.Uint64(page[from+8+8*k:])), k/d%2 == 1)
		}
	}
}

// nativeCopy makes p view an aligned copy of page, the bytes its entries
// use, with their floats in the host's byte order — the layout the
// accessors read, where page itself cannot be viewed.
func (p *packedNode) nativeCopy(page []byte, utreeLeaf bool) {
	b := make([]byte, len(page)+7)
	for floats[float64](b, 0, 1) == nil {
		b = b[1:]
	}
	p.buf = b[:len(page)]
	if littleEndian {
		copy(p.buf, page)
	} else {
		p.copyFields(page, utreeLeaf)
	}
}

// copyFields copies page into p.buf field by field: the header and the
// integers as the page has them, the floats in the host's byte order.
func (p *packedNode) copyFields(page []byte, utreeLeaf bool) {
	copy(p.buf[:nodeHeader], page)
	d := int(p.dim)
	for i := 0; i < p.count; i++ {
		at, k := p.at(i), p.at(i)+8
		if p.leaf() {
			k += 8
		}
		copy(p.buf[at:k], page[at:k])
		if page[1] == halfInner {
			f32 := p.box32(i)
			for j := range f32 {
				f32[j] = math.Float32frombits(binary.LittleEndian.Uint32(page[k+4*j:]))
			}
			continue
		}
		n := 2 * d * int(p.nb)
		if utreeLeaf && p.centred(i) {
			n = d
		}
		f64 := floats[float64](p.buf, k, n)
		for j := range f64 {
			f64[j] = math.Float64frombits(binary.LittleEndian.Uint64(page[k+8*j:]))
		}
		if utreeLeaf && p.form(i) == 0 {
			k += 8 * len(f64)
			f32 := floats[float32](p.buf, k, 8*d)
			for j := range f32 {
				f32[j] = math.Float32frombits(binary.LittleEndian.Uint32(page[k+4*j:]))
			}
		}
	}
}

// littleEndian is whether the host stores numbers in the page's byte
// order, so that a page's float fields read in place.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// floats is the n values of type T at byte off of buf, laid over buf's
// bytes — so read in the host's byte order — or nil where they are not
// aligned for T. It is the one use of unsafe: a node's rectangles and CFBs
// are read where its page holds them (packedNode), whose float fields are
// all aligned once the page is.
func floats[T float32 | float64](buf []byte, off, n int) []T {
	size := int(unsafe.Sizeof(T(0)))
	b := buf[off : off+n*size]
	ptr := unsafe.Pointer(unsafe.SliceData(b))
	if uintptr(ptr)%uintptr(size) != 0 {
		return nil
	}
	return unsafe.Slice((*T)(ptr), n)
}

// innerBoxes is the number of rectangles in an intermediate entry (and in a
// U-PCR leaf entry, whose m PCRs have the same shape).
func (t *Tree) innerBoxes() int {
	if t.kind == UPCR {
		return t.cat.Size()
	}
	return 2
}

// encodeLeafEntry writes e at the start of buf and returns its size: a
// keyed U-tree entry that holds its centre centred — id, address word with
// the centre flag, centre — any other keyed U-tree entry compact — id,
// address word with the compact flag, MBR — and every other entry full.
func (t *Tree) encodeLeafEntry(e *entry, buf []byte) int {
	var form uint16
	switch {
	case t.kind != UTree:
	case e.ctr != nil:
		form = centreEntry
	case e.shape != 0:
		form = compactEntry
	}
	binary.LittleEndian.PutUint64(buf, uint64(e.id))
	off := putAddr(buf, 8, e.addr, e.shape|form)
	if form == centreEntry {
		for _, v := range e.ctr {
			off = putF64(buf, off, v)
		}
		return t.entrySize(e, true)
	}
	off = putRect(buf, off, e.mbr)
	switch {
	case form == compactEntry:
	case t.kind == UTree:
		putCFB(buf, putCFB(buf, off, e.out), e.in)
	default:
		// U-PCR: pcr(0) is the MBR itself, so boxes 1..m-1 follow the MBR slot.
		for j := 1; j < t.cat.Size(); j++ {
			off = putRect(buf, off, e.boxes[j])
		}
	}
	return t.entrySize(e, true)
}

// encodeInnerEntry writes the intermediate entry of child and boxes over
// buf: child, pad, then the boxes — a U-tree's MBR⊥ and MBR⊤ as float32,
// each face rounded outward (unionBoundary has rounded them already, and a
// box widened from a page is float32 too, so the rounding is exact),
// U-PCR's m boxes as float64.
func (t *Tree) encodeInnerEntry(buf []byte, child pagefile.PageID, boxes []geom.Rect) {
	binary.LittleEndian.PutUint32(buf, uint32(child))
	binary.LittleEndian.PutUint32(buf[4:], 0)
	off := 8
	for _, b := range boxes {
		if t.kind == UPCR {
			off = putRect(buf, off, b)
			continue
		}
		for _, v := range b.Lo {
			binary.LittleEndian.PutUint32(buf[off:], math.Float32bits(pcr.Round32(v, false)))
			off += 4
		}
		for _, v := range b.Hi {
			binary.LittleEndian.PutUint32(buf[off:], math.Float32bits(pcr.Round32(v, true)))
			off += 4
		}
	}
}

func putRect(buf []byte, off int, r geom.Rect) int {
	for _, v := range r.Lo {
		off = putF64(buf, off, v)
	}
	for _, v := range r.Hi {
		off = putF64(buf, off, v)
	}
	return off
}

// putCFB copies the coefficient slab as it is: the page holds the bits the
// filter reads in memory.
func putCFB(buf []byte, off int, c pcr.CFB) int {
	for _, v := range c {
		binary.LittleEndian.PutUint32(buf[off:], math.Float32bits(v))
		off += 4
	}
	return off
}
