package core

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/geom"
	"repro/internal/pagefile"
	"repro/internal/pcr"
)

// Per-query scratch pooling: the traversal state a query would otherwise
// allocate afresh — descent frontiers, candidate lists, the NN frontier
// heap, the NN expected-distance sample buffer, seeded samplers, and what
// the leaf-entry questions work in: the faces and box of the entry decide
// filters, and the data page the record reader holds with its id — is
// recycled through sync.Pools.
// The discipline:
//
//   - Everything handed out is length-reset before reuse (capacity kept),
//     and the held page id reset on every getScratch, since a page id can
//     be reused by a later epoch: no query observes another query's values.
//   - Nothing that escapes to the caller is pooled: result slices are
//     always allocated fresh.
//   - Scratch never holds pointers into tree pages or cached nodes — the
//     element types (PageID, candidate, nnItem, float64, byte, the lines
//     of pcr.Faces) are pointer-free, and the box lies over the slab's own
//     coordinates — so a pooled buffer retains no memory beyond its own
//     backing array. decodeObject and updf.Decode copy every value out of
//     the page, so an object outlives the next read into it.
//
// Results are byte-identical to the unpooled path: pooling changes where
// buffers live, never the order of appends, pops, or sampler draws.

// candidate is a leaf entry as decide leaves it for refinement: id, data
// record address, shape reference and what the shape decided of it
// (pcr.Shape.FilterMarginal) — Unknown where the record has to be read.
type candidate struct {
	id      int64
	addr    DataAddr
	decided pcr.Outcome
	ref     uint16 // its entry's shape in the table; 0 where it names none there
}

// queryScratch is one query's reusable traversal state.
type queryScratch struct {
	frontier []pagefile.PageID // current descent level
	next     []pagefile.PageID // next descent level (swapped per round)
	cands    []candidate       // refinement candidates
	heap     nnHeap            // NN frontier
	mc       geom.Point        // NN expected-distance sample point
	faces    pcr.Faces         // the leaf entry decide is filtering
	box      rectSlab          // a centre entry's MBR (packedNode.leafMBR)
	page     []byte            // the data page the record reader holds
	held     pagefile.PageID   // page's id, InvalidPage before a read
}

var scratchPool = sync.Pool{New: func() any { return new(queryScratch) }}

func getScratch() *queryScratch {
	sc := scratchPool.Get().(*queryScratch)
	sc.held = pagefile.InvalidPage
	return sc
}

// release resets every buffer's length (keeping capacity) and returns the
// scratch to the pool.
func (sc *queryScratch) release() {
	sc.frontier = sc.frontier[:0]
	sc.next = sc.next[:0]
	sc.cands = sc.cands[:0]
	sc.heap = sc.heap[:0]
	scratchPool.Put(sc)
}

// mbr returns the scratch box of dimensionality dim.
func (sc *queryScratch) mbr(dim int) geom.Rect { return sc.box.take(1, dim)[0] }

// decide is a range query's one test of leaf entry i of n on what the entry
// stores (Section 5.2): Observation 3 on its CFBs — stored, or its shape's
// translated — or Observation 2 on a U-PCR's PCRs. An Unknown entry's
// candidate also carries pcr.Shape.FilterMarginal's decision where the
// entry names a shape of the table, so refinement reads a record only where
// that decides nothing; noShapeTest leaves it to the record.
func (sc *queryScratch) decide(t *Tree, shapes []shape, n *packedNode, i int, q Query, noShapeTest bool) (candidate, pcr.Outcome) {
	addr, ref := n.addr(i)
	mbr, ok := n.leafMBR(i, shapes, sc.mbr(t.dim))
	c := candidate{id: n.id(i), addr: addr}
	if ok && int(ref) <= len(shapes) {
		c.ref = ref
	}
	out := pcr.Unknown // no box, or no faces (a reference beyond the table): the record decides
	switch {
	case !ok:
	case t.kind == UPCR:
		out = pcr.FilterCatalogPCR(pcr.PCRs{Cat: t.cat, Boxes: n.boxes(i)}, mbr, q.Rect, q.Prob)
	case n.form(i) == 0:
		cout, cin := n.cfbs(i)
		out = pcr.FilterCFB(cout, cin, t.cat, mbr, q.Rect, q.Prob)
	case c.ref != 0:
		out = shapes[ref-1].fit.Filter(&sc.faces, mbr, q.Rect, q.Prob)
	}
	if out == pcr.Unknown && c.ref != 0 && !noShapeTest {
		c.decided = shapes[ref-1].fit.FilterMarginal(mbr, q.Rect, q.Prob)
	}
	return c, out
}

// object is the one record reader: object id's record at a, decoded against
// shapes from the store's bytes — never the writer's — read into the
// scratch page unless it holds that page already, each read counted in
// reads. A store error is returned as it is, a decode error wrapped.
func (sc *queryScratch) object(s pagefile.Store, shapes []shape, id int64, a DataAddr, reads *int) (Object, error) {
	if a.Page != sc.held {
		if sc.page == nil {
			sc.page = make([]byte, pagefile.PageSize)
		}
		sc.held = pagefile.InvalidPage
		if err := s.Read(a.Page, sc.page); err != nil {
			return Object{}, err
		}
		sc.held = a.Page
		*reads++
	}
	rec, legacy, err := RecordFromPage(sc.page, a.Slot)
	var obj Object
	if err == nil {
		obj, err = decodeObject(rec, legacy, shapes)
	}
	if err != nil {
		return obj, fmt.Errorf("core: refining object %d: %w", id, err)
	}
	return obj, nil
}

// point returns the scratch sample buffer resized to dim.
func (sc *queryScratch) point(dim int) geom.Point {
	if cap(sc.mc) < dim {
		sc.mc = make(geom.Point, dim)
	}
	return sc.mc[:dim]
}

// Typed nnHeap operations replacing container/heap: identical sift
// semantics (up stops on !Less(child, parent); down picks the right child
// only when strictly Less than the left), so pop order — and therefore
// tie-breaking among equal lower bounds — matches the boxed heap.Push/
// heap.Pop exactly. The payoff is no interface boxing: heap.Push allocates
// every nnItem onto the heap's any parameter; these don't.

func nnUp(h nnHeap, j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].lb < h[i].lb) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func nnDown(h nnHeap, i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h[j2].lb < h[j1].lb {
			j = j2
		}
		if !(h[j].lb < h[i].lb) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// nnPush appends it and restores the heap order (container/heap.Push).
func nnPush(h *nnHeap, it nnItem) {
	*h = append(*h, it)
	nnUp(*h, len(*h)-1)
}

// nnPop removes and returns the minimum (container/heap.Pop).
func nnPop(h *nnHeap) nnItem {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	nnDown(old, 0, n)
	it := old[n]
	*h = old[:n]
	return it
}

// Pooled deterministic samplers: rand.New allocates the Rand and its
// ~5 KB source on every call — one per NN expected-distance evaluation.
// Re-seeding a pooled *rand.Rand with (*Rand).Seed reproduces the exact
// sequence rand.New(rand.NewSource(seed)) would produce, so pooling changes
// nothing about the draws.

var randPool = sync.Pool{New: func() any { return rand.New(rand.NewSource(1)) }}

// getSeededRand returns a pooled sampler reset to the given seed.
func getSeededRand(seed int64) *rand.Rand {
	r := randPool.Get().(*rand.Rand)
	r.Seed(seed)
	return r
}

func putRand(r *rand.Rand) { randPool.Put(r) }
