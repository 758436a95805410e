package core

import (
	"encoding/binary"
	"fmt"
	"math"

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
}

func (n *node) leaf() bool { return n.level == 0 }

// packedNode is the read form of a tree page and the value the decoded-node
// cache holds: per-entry scalars in keys, every coordinate in one float64
// and one float32 slab, so a cached leaf holds no pointer the GC must scan
// and costs about what its page does (48 B a compact 2-D U-tree leaf entry,
// 112 B a full one).
//
//   - keys: a leaf entry's id and its addr‖shape word, the page's own 16
//     bytes (2 words an entry), compact flag included; an intermediate
//     entry's child (1 word).
//   - f64: each entry's nb rectangles, Lo then Hi, at stride nb·2·dim — a
//     U-tree leaf's MBR (nb = 1), a U-PCR leaf's m PCRs (pcr(0) is the
//     MBR), an intermediate entry's 2 or m bounding boxes.
//   - f32: the cfb_out‖cfb_in of a U-tree leaf's full entries, at stride
//     8·dim; a compact entry has none (its faces are its shape's).
//   - rank: for a leaf holding both forms, entry i's place among the full
//     entries, whose CFBs f32 holds in order; nil when every entry is full.
//   - rects: for intermediate nodes and U-PCR leaves, which are few, the nb
//     rectangles of each entry laid over f64 — the []geom.Rect the descent
//     and the U-PCR filter take.
//
// The accessors return sub-slices of the slabs, capped so that an append
// cannot reach a neighbour. Nothing writes through them: a cached node is
// shared by every lock-free reader.
type packedNode struct {
	page         pagefile.PageID
	level, count int
	dim, nb      int
	keys         []uint64
	f64          []float64
	f32          []float32
	rank         []uint16
	rects        []geom.Rect
}

func (p *packedNode) leaf() bool { return p.level == 0 }

// id is leaf entry i's object id.
func (p *packedNode) id(i int) int64 { return int64(p.keys[2*i]) }

// addr is leaf entry i's record address and shape reference.
func (p *packedNode) addr(i int) (pagefile.DataAddr, uint16) {
	w := p.keys[2*i+1]
	return pagefile.DataAddr{Page: pagefile.PageID(w), Slot: uint16(w >> 32)}, uint16(w>>48) &^ compactEntry
}

// compact reports whether leaf entry i is in the compact form: id,
// address and MBR, its faces its shape's (Shape.Translate).
func (p *packedNode) compact(i int) bool { return uint16(p.keys[2*i+1]>>48)&compactEntry != 0 }

// child is intermediate entry i's child page.
func (p *packedNode) child(i int) pagefile.PageID { return pagefile.PageID(p.keys[i]) }

// mbr is leaf entry i's MBR.
func (p *packedNode) mbr(i int) geom.Rect { return p.rect(i * p.nb) }

// rect is the k-th rectangle of the f64 slab.
func (p *packedNode) rect(k int) geom.Rect {
	d := p.dim
	c := p.f64[2*d*k : 2*d*(k+1) : 2*d*(k+1)]
	return geom.Rect{Lo: c[:d:d], Hi: c[d:]}
}

// cfbs is full U-tree leaf entry i's cfb_out and cfb_in.
func (p *packedNode) cfbs(i int) (out, in pcr.CFB) {
	if p.rank != nil {
		i = int(p.rank[i])
	}
	w := 4 * p.dim
	c := p.f32[2*w*i : 2*w*(i+1) : 2*w*(i+1)]
	return pcr.CFB(c[:w:w]), pcr.CFB(c[w:])
}

// boxes is the nb rectangles of intermediate or U-PCR leaf entry i.
func (p *packedNode) boxes(i int) []geom.Rect {
	return p.rects[i*p.nb : (i+1)*p.nb : (i+1)*p.nb]
}

// readNode fetches the page a descent expects at level and expands it into
// edit form over the working shape table, counting one logical node access.
// A node at another level is refused (checkLevel), so no walk that reads its
// nodes here can loop. It always decodes a private copy: the mutation paths
// edit the returned node's entries in place, so they must never receive
// slabs shared through the decoded-node cache. Query paths go through
// fetchNode, which consults the cache first.
func (t *Tree) readNode(id pagefile.PageID, level int) (*node, error) {
	return t.readNodeIn(id, level, t.shapes)
}

// readNodeIn is readNode over the shape table of the epoch the page
// belongs to: a snapshot's check must not read the writer's.
func (t *Tree) readNodeIn(id pagefile.PageID, level int, shapes []shape) (*node, error) {
	p, err := t.readPacked(id)
	if err != nil {
		return nil, err
	}
	if err := t.checkLevel(p, level); err != nil {
		return nil, err
	}
	return t.expand(p, shapes), nil
}

// expand is p's edit form, its entries laid over p's slabs (see entry). A
// keyed U-tree leaf entry comes out compact whichever form the page holds —
// a UTR4 file's are full — so the next write of its node stores it compact,
// and its faces are its shape's in the table. One whose reference is beyond
// the table, which CheckInvariants reports, has no faces but its MBR.
func (t *Tree) expand(p *packedNode, shapes []shape) *node {
	n := &node{page: p.page, level: p.level, entries: make([]entry, p.count)}
	for i := range n.entries {
		e := &n.entries[i]
		switch {
		case !p.leaf():
			e.child, e.boxes = p.child(i), p.boxes(i)
		case t.kind == UTree:
			e.id, e.mbr = p.id(i), p.mbr(i)
			e.addr, e.shape = p.addr(i)
			if e.shape == 0 {
				e.out, e.in = p.cfbs(i)
			} else if int(e.shape) <= len(shapes) {
				e.fit = shapes[e.shape-1].fit
			}
		default:
			e.id, e.pcrs = p.id(i), p.boxes(i)
			e.addr, e.shape = p.addr(i)
			e.mbr = e.pcrs[0]
		}
	}
	return n
}

// maybeCacheNode offers a freshly decoded node to the decoded-node cache.
// Only committed pages are cached — their bytes are COW-immutable while
// live, so the decoded form is shareable across lock-free readers; a
// shadow (fresh) page is still writable in place and bypasses the cache.
// Callers must not mutate p after offering it.
func (t *Tree) maybeCacheNode(p *packedNode) {
	if t.ncache == nil {
		return
	}
	if t.vs.Committed(p.page) {
		t.ncache.put(p.page, p)
	}
}

// readPacked reads and decodes a page, counting one logical node access.
// A page that fails its checksum, its trailer or its decode fails this read
// with a typed error (ErrChecksum or ErrBadPage); nothing remembers it, so
// the next read asks the store again.
func (t *Tree) readPacked(id pagefile.PageID) (*packedNode, error) {
	t.nodeReads.Add(1)
	buf, err := t.pool.Get(id)
	if err != nil {
		return nil, fmt.Errorf("core: reading node %d: %w", id, err)
	}
	return t.decodeNode(id, buf)
}

// writeNode serializes a node to its page — copy-on-write: a node whose
// page was live at the last commit is relocated to a fresh shadow page
// (the old page stays byte-intact for pinned snapshots and is reclaimed by
// the epoch GC once no snapshot can reference it). Callers must propagate
// n.page into the parent entry afterwards (refreshPath, split and condense
// do); the root's relocation updates t.rootPage here, and every write of
// the root page records its box (rootBox) for the next commit. A page
// allocated since the last commit is rewritten in place.
func (t *Tree) writeNode(n *node) error {
	t.nodeWrites.Add(1)
	if !t.vs.Writable(n.page) {
		old := n.page
		id, err := t.store.Alloc()
		if err != nil {
			return fmt.Errorf("core: shadowing node %d: %w", old, err)
		}
		n.page = id
		if old == t.rootPage {
			t.rootPage = id
		}
		if err := t.vs.Free(old); err != nil {
			return fmt.Errorf("core: retiring node %d: %w", old, err)
		}
	}
	buf := make([]byte, pagefile.PageSize)
	if err := t.encodeNode(n, buf); err != nil {
		return err
	}
	if err := t.pool.Put(n.page, buf); err != nil {
		return fmt.Errorf("core: writing node %d: %w", n.page, err)
	}
	if n.page == t.rootPage {
		t.rootMBR = t.rootBox(n)
	}
	return nil
}

// allocNode creates an empty node at the given level.
func (t *Tree) allocNode(level int) (*node, error) {
	id, err := t.store.Alloc()
	if err != nil {
		return nil, fmt.Errorf("core: allocating node: %w", err)
	}
	return &node{page: id, level: level}, nil
}

// freeNode releases a node's page: immediately when the page is a shadow
// of the open batch, deferred to the epoch GC when it was committed — a
// pinned snapshot may still descend into it.
func (t *Tree) freeNode(n *node) error {
	return t.vs.Free(n.page)
}

func (t *Tree) encodeNode(n *node, buf []byte) error {
	if b := t.entryBytes(n.entries, n.leaf()); b > pageBytes {
		return fmt.Errorf("core: node %d holds %d entries in %d bytes, capacity %d", n.page, len(n.entries), b, pageBytes)
	}
	buf[0] = byte(n.level)
	binary.LittleEndian.PutUint16(buf[2:], uint16(len(n.entries)))
	off := nodeHeader
	for i := range n.entries {
		e := &n.entries[i]
		if n.leaf() {
			off += t.encodeLeafEntry(e, buf[off:])
		} else {
			t.encodeInnerEntry(e, buf[off:off+t.innerEntrySize])
			off += t.innerEntrySize
		}
	}
	return nil
}

// decodeNode turns page bytes into a packedNode. It is the only code that
// reads node bytes: at most four allocations however many entries the node
// holds (five for a leaf holding both entry forms).
func (t *Tree) decodeNode(id pagefile.PageID, buf []byte) (*packedNode, error) {
	p := &packedNode{
		page: id, level: int(buf[0]), count: int(binary.LittleEndian.Uint16(buf[2:])),
		dim: t.dim, nb: t.innerBoxes(),
	}
	// A structurally impossible page is corruption the checksum layer did
	// not catch; type it like one.
	bad := func(reason string, a ...any) error {
		return fmt.Errorf("core: corrupt node %d: %w", id, &pagefile.BadPageError{Page: id, Reason: fmt.Sprintf(reason, a...)})
	}
	sz, words, off0 := t.innerEntrySize, 1, 8
	if p.leaf() {
		sz, words, off0 = t.leafEntrySize, 2, 16
	}
	// A U-tree leaf entry's one rectangle is its MBR, beside two CFBs unless
	// it is compact; the first pass finds which of its entries are full.
	utreeLeaf := p.leaf() && t.kind == UTree
	full := p.count
	if utreeLeaf {
		p.nb, sz = 1, t.compactEntrySize
	}
	if p.count*sz > pageBytes {
		return nil, bad("entry count %d exceeds capacity %d", p.count, pageBytes/sz)
	}
	if utreeLeaf {
		full = 0
		for i, end := 0, nodeHeader; i < p.count; i++ {
			switch shape := binary.LittleEndian.Uint16(buf[end+14:]); {
			case shape == compactEntry:
				return nil, bad("compact entry %d names no shape", i)
			case shape&compactEntry == 0:
				full++
				end += t.leafEntrySize - t.compactEntrySize
			}
			if end += t.compactEntrySize; end+(p.count-i-1)*t.compactEntrySize > pagefile.PageSize {
				return nil, bad("%d entries overrun the page", p.count)
			}
		}
	}
	nf64, nf32 := 2*t.dim*p.nb, 8*t.dim
	p.keys = make([]uint64, words*p.count)
	p.f64 = make([]float64, nf64*p.count)
	switch {
	case !utreeLeaf:
		p.rects = make([]geom.Rect, p.nb*p.count)
	case full == 0:
	case full < p.count:
		p.rank = make([]uint16, p.count)
		fallthrough
	default:
		p.f32 = make([]float32, nf32*full)
	}
	for i, at, r := 0, nodeHeader, 0; i < p.count; i++ {
		e := buf[at:]
		if p.leaf() {
			p.keys[2*i] = binary.LittleEndian.Uint64(e)
			p.keys[2*i+1] = binary.LittleEndian.Uint64(e[8:])
		} else {
			p.keys[i] = uint64(binary.LittleEndian.Uint32(e))
		}
		off := off0
		f64 := p.f64[nf64*i : nf64*(i+1)]
		for k := range f64 {
			f64[k], off = getF64(e, off)
		}
		switch {
		case p.leaf() && p.compact(i):
			if !utreeLeaf {
				return nil, bad("compact entry %d in a %v leaf", i, t.kind)
			}
		case utreeLeaf:
			if p.rank != nil {
				p.rank[i] = uint16(r)
			}
			f32 := p.f32[nf32*r : nf32*(r+1)]
			for k := range f32 {
				f32[k] = math.Float32frombits(binary.LittleEndian.Uint32(e[off:]))
				off += 4
			}
			r++
		}
		at += off
	}
	for k := range p.rects {
		p.rects[k] = p.rect(k)
	}
	return p, nil
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
// keyed U-tree entry compact — id, address word with the compact flag, MBR
// — and every other entry full.
func (t *Tree) encodeLeafEntry(e *entry, buf []byte) int {
	compact := t.kind == UTree && e.shape != 0
	shape := e.shape
	if compact {
		shape |= compactEntry
	}
	binary.LittleEndian.PutUint64(buf, uint64(e.id))
	off := putAddr(buf, 8, e.addr, shape)
	off = putRect(buf, off, e.mbr)
	switch {
	case compact:
	case t.kind == UTree:
		putCFB(buf, putCFB(buf, off, e.out), e.in)
	default:
		// U-PCR: pcr(0) is the MBR itself, so boxes 1..m-1 follow the MBR slot.
		for j := 1; j < t.cat.Size(); j++ {
			off = putRect(buf, off, e.pcrs[j])
		}
	}
	return t.entrySize(e, true)
}

func (t *Tree) encodeInnerEntry(e *entry, buf []byte) {
	binary.LittleEndian.PutUint32(buf, uint32(e.child))
	binary.LittleEndian.PutUint32(buf[4:], 0)
	off := 8
	for _, b := range e.boxes {
		off = putRect(buf, off, b)
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
