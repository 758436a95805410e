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
// and costs about what its page does (112 B a 2-D U-tree leaf entry).
//
//   - keys: a leaf entry's id and its addr‖shape word, the page's own 16
//     bytes (2 words an entry); an intermediate entry's child (1 word).
//   - f64: each entry's nb rectangles, Lo then Hi, at stride nb·2·dim — a
//     U-tree leaf's MBR (nb = 1), a U-PCR leaf's m PCRs (pcr(0) is the
//     MBR), an intermediate entry's 2 or m bounding boxes.
//   - f32: a U-tree leaf entry's cfb_out‖cfb_in, at stride 8·dim.
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
	rects        []geom.Rect
}

func (p *packedNode) leaf() bool { return p.level == 0 }

// id is leaf entry i's object id.
func (p *packedNode) id(i int) int64 { return int64(p.keys[2*i]) }

// addr is leaf entry i's record address and shape reference.
func (p *packedNode) addr(i int) (pagefile.DataAddr, uint16) {
	w := p.keys[2*i+1]
	return pagefile.DataAddr{Page: pagefile.PageID(w), Slot: uint16(w >> 32)}, uint16(w >> 48)
}

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

// cfbs is U-tree leaf entry i's cfb_out and cfb_in.
func (p *packedNode) cfbs(i int) (out, in pcr.CFB) {
	w := 4 * p.dim
	c := p.f32[2*w*i : 2*w*(i+1) : 2*w*(i+1)]
	return pcr.CFB(c[:w:w]), pcr.CFB(c[w:])
}

// boxes is the nb rectangles of intermediate or U-PCR leaf entry i.
func (p *packedNode) boxes(i int) []geom.Rect {
	return p.rects[i*p.nb : (i+1)*p.nb : (i+1)*p.nb]
}

// readNode fetches the page a descent expects at level and expands it into
// edit form, counting one logical node access. A node at another level is
// refused (checkLevel), so no walk that reads its nodes here can loop. It
// always decodes a private copy: the mutation paths edit the returned
// node's entries in place, so they must never receive slabs shared through
// the decoded-node cache. Query paths go through fetchNode, which consults
// the cache first.
func (t *Tree) readNode(id pagefile.PageID, level int) (*node, error) {
	p, err := t.readPacked(id)
	if err != nil {
		return nil, err
	}
	if err := t.checkLevel(p, level); err != nil {
		return nil, err
	}
	return t.expand(p), nil
}

// expand is p's edit form, its entries laid over p's slabs (see entry).
func (t *Tree) expand(p *packedNode) *node {
	n := &node{page: p.page, level: p.level, entries: make([]entry, p.count)}
	for i := range n.entries {
		e := &n.entries[i]
		switch {
		case !p.leaf():
			e.child, e.boxes = p.child(i), p.boxes(i)
		case t.kind == UTree:
			e.id, e.mbr = p.id(i), p.mbr(i)
			e.addr, e.shape = p.addr(i)
			e.out, e.in = p.cfbs(i)
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
	if committed, epoch := t.vs.CommittedInfo(p.page); committed {
		t.ncache.put(p.page, p, epoch)
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
	cap := t.leafCap
	sz := t.leafEntrySize
	if !n.leaf() {
		cap = t.innerCap
		sz = t.innerEntrySize
	}
	if len(n.entries) > cap {
		return fmt.Errorf("core: node %d holds %d entries, capacity %d", n.page, len(n.entries), cap)
	}
	buf[0] = byte(n.level)
	binary.LittleEndian.PutUint16(buf[2:], uint16(len(n.entries)))
	off := nodeHeader
	for i := range n.entries {
		if n.leaf() {
			t.encodeLeafEntry(&n.entries[i], buf[off:off+sz])
		} else {
			t.encodeInnerEntry(&n.entries[i], buf[off:off+sz])
		}
		off += sz
	}
	return nil
}

// decodeNode turns page bytes into a packedNode. It is the only code that
// reads node bytes: four allocations however many entries the node holds.
func (t *Tree) decodeNode(id pagefile.PageID, buf []byte) (*packedNode, error) {
	p := &packedNode{
		page: id, level: int(buf[0]), count: int(binary.LittleEndian.Uint16(buf[2:])),
		dim: t.dim, nb: t.innerBoxes(),
	}
	cap, sz, words, off0 := t.innerCap, t.innerEntrySize, 1, 8
	if p.leaf() {
		cap, sz, words, off0 = t.leafCap, t.leafEntrySize, 2, 16
	}
	if p.count > cap {
		// A structurally impossible header is corruption the checksum layer
		// did not catch; type it like one.
		return nil, fmt.Errorf("core: corrupt node %d: %w", id, &pagefile.BadPageError{
			Page:   id,
			Reason: fmt.Sprintf("entry count %d exceeds capacity %d", p.count, cap),
		})
	}
	// A U-tree leaf entry's one rectangle is its MBR, beside two CFBs.
	utreeLeaf := p.leaf() && t.kind == UTree
	if utreeLeaf {
		p.nb = 1
	}
	nf64, nf32 := 2*t.dim*p.nb, 0
	p.keys = make([]uint64, words*p.count)
	p.f64 = make([]float64, nf64*p.count)
	if utreeLeaf {
		nf32 = 8 * t.dim
		p.f32 = make([]float32, nf32*p.count)
	} else {
		p.rects = make([]geom.Rect, p.nb*p.count)
	}
	for i := 0; i < p.count; i++ {
		e := buf[nodeHeader+i*sz : nodeHeader+(i+1)*sz]
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
		if utreeLeaf {
			f32 := p.f32[nf32*i : nf32*(i+1)]
			for k := range f32 {
				f32[k] = math.Float32frombits(binary.LittleEndian.Uint32(e[off:]))
				off += 4
			}
		}
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

func (t *Tree) encodeLeafEntry(e *entry, buf []byte) {
	binary.LittleEndian.PutUint64(buf, uint64(e.id))
	off := putAddr(buf, 8, e.addr, e.shape)
	off = putRect(buf, off, e.mbr)
	if t.kind == UTree {
		off = putCFB(buf, off, e.out)
		putCFB(buf, off, e.in)
		return
	}
	// U-PCR: pcr(0) is the MBR itself, so boxes 1..m-1 follow the MBR slot.
	for j := 1; j < t.cat.Size(); j++ {
		off = putRect(buf, off, e.pcrs[j])
	}
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
