package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/pagefile"
	"repro/internal/pcr"
)

// node is the in-memory form of a tree page.
type node struct {
	page    pagefile.PageID
	level   int // 0 = leaf
	entries []entry
}

func (n *node) leaf() bool { return n.level == 0 }

// readNode fetches and deserializes a page, counting one logical node
// access. It always decodes a private copy: the mutation paths (insert and
// delete descents) edit the returned node's entries in place, so they must
// never receive a node shared through the decoded-node cache. Query paths
// go through fetchNode, which consults the cache first.
func (t *Tree) readNode(id pagefile.PageID) (*node, error) {
	n, _, err := t.readNodeMiss(id)
	return n, err
}

// maybeCacheNode offers a freshly decoded node to the decoded-node cache.
// Only committed pages are cached — their bytes are COW-immutable while
// live, so the decoded form is shareable across lock-free readers; a
// shadow (fresh) page is still writable in place and bypasses the cache.
// Callers must not mutate n after offering it.
func (t *Tree) maybeCacheNode(n *node) {
	if t.ncache == nil {
		return
	}
	if committed, epoch := t.vs.CommittedInfo(n.page); committed {
		t.ncache.put(n.page, n, epoch)
	}
}

// readNodeMiss is readNode plus the buffer pool's per-call miss report,
// which the budgeted query path charges against its page budget. Pages in
// the quarantine registry fast-fail before touching storage, and a read or
// decode that proves corruption quarantines the page on its way out.
func (t *Tree) readNodeMiss(id pagefile.PageID) (*node, bool, error) {
	t.nodeReads.Add(1)
	if err := t.checkQuarantine(id); err != nil {
		return nil, false, err
	}
	buf, miss, err := t.pool.GetMiss(id)
	if err != nil {
		return nil, miss, fmt.Errorf("core: reading node %d: %w", id, t.noteReadError(id, err))
	}
	n, err := t.decodeNode(id, buf)
	if err != nil {
		return nil, miss, t.noteReadError(id, err)
	}
	return n, miss, nil
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

// slabs is one decoded node's coordinate storage: every rectangle of every
// entry is a sub-slice of f64, every CFB of f32, every box list of rects, so
// decoding a node costs one allocation per element type, not several per
// entry. Each take is capped at its own length — an append through it
// cannot reach a neighbour — and entries never write through what they are
// handed (see entry).
type slabs struct {
	f64   []float64
	f32   []float32
	rects []geom.Rect
}

// rect decodes the rectangle at buf[off:] into the next 2·dim coordinates.
func (s *slabs) rect(buf []byte, off, dim int) (geom.Rect, int) {
	c := s.f64[: 2*dim : 2*dim]
	s.f64 = s.f64[2*dim:]
	for i := range c {
		c[i], off = getF64(buf, off)
	}
	return geom.Rect{Lo: c[:dim:dim], Hi: c[dim:]}, off
}

// cfb decodes the CFB at buf[off:] into the next 4·dim coefficients.
func (s *slabs) cfb(buf []byte, off, dim int) (pcr.CFB, int) {
	c := s.f32[: 4*dim : 4*dim]
	s.f32 = s.f32[4*dim:]
	for i := range c {
		c[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
	}
	return pcr.CFB(c), off
}

// boxes takes the next n rectangles, undecoded.
func (s *slabs) boxes(n int) []geom.Rect {
	b := s.rects[:n:n]
	s.rects = s.rects[n:]
	return b
}

func (t *Tree) decodeNode(id pagefile.PageID, buf []byte) (*node, error) {
	n := &node{page: id, level: int(buf[0])}
	count := int(binary.LittleEndian.Uint16(buf[2:]))
	cap, sz := t.innerCap, t.innerEntrySize
	if n.leaf() {
		cap, sz = t.leafCap, t.leafEntrySize
	}
	if count > cap {
		// A structurally impossible header is corruption the checksum layer
		// did not (or, on v1 files, could not) catch; type it so the
		// quarantine and degraded-read machinery treat it like one.
		return nil, fmt.Errorf("core: corrupt node %d: %w", id, &pagefile.BadPageError{
			Page:   id,
			Reason: fmt.Sprintf("entry count %d exceeds capacity %d", count, cap),
		})
	}
	n.entries = make([]entry, count)
	// Rectangles per entry: the m boxes of either U-PCR level, [MBR⊥, MBR⊤]
	// of a U-tree intermediate entry, or a U-tree leaf entry's MBR, which
	// sits beside two CFBs instead of in a box list.
	utreeLeaf := n.leaf() && t.kind == UTree
	nb := t.innerBoxes()
	if utreeLeaf {
		nb = 1
	}
	s := slabs{f64: make([]float64, count*nb*2*t.dim)}
	if utreeLeaf {
		s.f32 = make([]float32, count*8*t.dim)
	} else {
		s.rects = make([]geom.Rect, count*nb)
	}
	off := nodeHeader
	for i := 0; i < count; i++ {
		if n.leaf() {
			t.decodeLeafEntry(&n.entries[i], buf[off:off+sz], &s)
		} else {
			t.decodeInnerEntry(&n.entries[i], buf[off:off+sz], &s)
		}
		off += sz
	}
	return n, nil
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

func (t *Tree) decodeLeafEntry(e *entry, buf []byte, s *slabs) {
	e.id = int64(binary.LittleEndian.Uint64(buf))
	var off int
	e.addr, e.shape, off = getAddr(buf, 8)
	e.mbr, off = s.rect(buf, off, t.dim)
	if t.kind == UTree {
		e.out, off = s.cfb(buf, off, t.dim)
		e.in, _ = s.cfb(buf, off, t.dim)
		return
	}
	e.pcrs = s.boxes(t.cat.Size())
	e.pcrs[0] = e.mbr
	for j := 1; j < len(e.pcrs); j++ {
		e.pcrs[j], off = s.rect(buf, off, t.dim)
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

func (t *Tree) decodeInnerEntry(e *entry, buf []byte, s *slabs) {
	e.child = pagefile.PageID(binary.LittleEndian.Uint32(buf))
	e.boxes = s.boxes(t.innerBoxes())
	off := 8
	for i := range e.boxes {
		e.boxes[i], off = s.rect(buf, off, t.dim)
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
