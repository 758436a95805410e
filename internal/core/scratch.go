package core

import (
	"math/rand"
	"sync"

	"repro/internal/geom"
	"repro/internal/pagefile"
	"repro/internal/pcr"
)

// Per-query scratch pooling: the traversal state a query would otherwise
// allocate afresh — descent frontiers, candidate lists, the NN frontier
// heap, the NN expected-distance sample buffer, the box of the leaf entry
// in hand, the data page refinement reads and seeded samplers — is
// recycled through sync.Pools.
// The discipline:
//
//   - Everything handed out is length-reset before reuse (capacity kept),
//     so no query ever observes another query's values.
//   - Nothing that escapes to the caller is pooled: result slices are
//     always allocated fresh.
//   - Scratch never holds pointers into tree pages or cached nodes — the
//     element types (PageID, candidate, nnItem, float64, byte, the lines
//     of pcr.Faces) are pointer-free, and the box lies over the slab's own
//     coordinates — so a pooled buffer retains no memory beyond its own
//     backing array. A data page read into page is done with once its
//     records are decoded: decodeObject and updf.Decode copy every value
//     out of the record.
//
// Results are byte-identical to the unpooled path: pooling changes where
// buffers live, never the order of appends, pops, or sampler draws.

// candidate is a leaf entry awaiting refinement: id, data record address and
// what pcr.FilterShape made of it — Unknown where the record has to be read.
type candidate struct {
	id      int64
	addr    DataAddr
	decided pcr.Outcome
	keyed   bool // its entry names a shape in the table
}

// queryScratch is one query's reusable traversal state.
type queryScratch struct {
	frontier []pagefile.PageID // current descent level
	next     []pagefile.PageID // next descent level (swapped per round)
	cands    []candidate       // refinement candidates
	heap     nnHeap            // NN frontier
	mc       geom.Point        // NN expected-distance sample point
	faces    pcr.Faces         // the leaf entry the range filter is deciding
	box      rectSlab          // a centre entry's MBR (packedNode.leafMBR)
	page     []byte            // the data page refinement last read
}

var scratchPool = sync.Pool{New: func() any { return new(queryScratch) }}

func getScratch() *queryScratch { return scratchPool.Get().(*queryScratch) }

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

// dataPage returns the scratch data page, PageSize bytes.
func (sc *queryScratch) dataPage() []byte {
	if sc.page == nil {
		sc.page = make([]byte, pagefile.PageSize)
	}
	return sc.page
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
