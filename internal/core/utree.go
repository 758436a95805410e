package core

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/pagefile"
	"repro/internal/pcr"
)

// Options configures a Tree.
type Options struct {
	// Dim is the data dimensionality (required, ≥ 1).
	Dim int
	// Kind selects U-tree (default) or U-PCR.
	Kind Kind
	// CatalogSize m; 0 selects the paper defaults (15 for U-tree, 9 for
	// U-PCR).
	CatalogSize int
	// Store supplies page storage; nil selects an in-memory store.
	Store pagefile.Store
	// Persist makes the index reopenable: New reserves a metadata page —
	// the first page it allocates on Store, so the address is stable on a
	// fresh store — and every Commit writes the tree metadata to it before
	// publishing the epoch (the crash-consistency point, see Commit). Pass
	// MetaPage() to Open. Open ignores the field: a reopened tree always
	// persists.
	Persist bool
	// BufferPages bounds the write buffer's dirty pages (default 256).
	BufferPages int
	// MCSamples is the sample count of a k-NN query's expected-distance
	// estimate (default 10000). Range refinement is exact (Equation 2) and
	// draws no samples.
	MCSamples int
	// SplitStrategy selects how node splits sort entries (ablation knob;
	// the default is the paper's median-value heuristic).
	SplitStrategy SplitStrategy
	// DisableReinsert turns off R* forced reinsertion (ablation knob).
	DisableReinsert bool
	// NodeCacheEntries bounds the decoded-node cache: an LRU of packed
	// nodes decoded from committed pages, shared lock-free across readers —
	// the tree's one read cache, so a hot traversal skips both the page
	// read and the decode. A cached node costs about one page of heap,
	// so the default of 1024 entries (selected by 0) is ≈ 4 MiB; negative
	// disables the cache. A full cache evicts its least recently used leaf,
	// and an inner node only when it holds no leaf. Coherence is automatic
	// — entries drop when the versioned store physically frees their page,
	// and shadow pages are never cached.
	NodeCacheEntries int
}

// SplitStrategy selects the rectangles fed to the R* split during overflow
// (Section 5.3 discusses the trade-off).
type SplitStrategy int

const (
	// SplitMedian uses e.MBR(p_median) — the paper's heuristic avoiding one
	// sort per catalog value.
	SplitMedian SplitStrategy = iota
	// SplitAtZero uses e.MBR(p_1) = e.MBR(0) only, ignoring the catalog —
	// the naive adaptation the paper improves upon.
	SplitAtZero
	// SplitSummed runs the R* split at every catalog value and keeps the
	// partition with the smallest summed overlap — the "ideal" split whose
	// sorting cost the paper deems too expensive.
	SplitSummed
)

// Tree is a paged uncertain-data index: the U-tree of the paper or its
// U-PCR variant. Mutations (Insert, Delete, BulkLoad, Commit, Rollback)
// need one writer at a time; queries run on a pinned Snapshot of a
// committed epoch and take no lock.
type Tree struct {
	kind Kind
	dim  int
	cat  pcr.Catalog

	// store is the versioned (copy-on-write) view over the caller's page
	// storage; vs is the same object with its epoch surface exposed. All
	// tree I/O — node pages via the pool, data pages, metadata — goes
	// through it.
	store pagefile.Store
	vs    *pagefile.VersionedStore
	pool  *pagefile.BufferPool
	data  *pagefile.DataFile

	// ncache caches decoded nodes of committed pages (nil when disabled);
	// consulted only by the query paths — mutation descents decode
	// private copies they may edit in place.
	ncache *nodeCache

	// meta is the page Commit persists the tree metadata to; InvalidPage
	// for trees that are never reopened.
	meta pagefile.PageID

	rootPage  pagefile.PageID
	rootLevel int
	size      int
	// rootMBR is the working root's boundary box at p = 0 (rootBox),
	// recorded by writeNode whenever it writes the root page and wherever
	// another node becomes the root.
	rootMBR geom.Rect

	// Fan-outs (Fanout) and entry sizes. Capacity is pageBytes; the
	// minimum fill and the forced-reinsert share are bytes too, those of
	// R*'s 40 % and 30 % of a node of full entries, so a node of full
	// entries alone fills, splits and reinserts as it did by count.
	leafCap, innerCap             int
	leafEntrySize, innerEntrySize int
	compactEntrySize              int
	minLeaf, minInner             int
	reinsertLeaf, reinsertInner   int

	qcache  *pcr.QuantileCache
	samples int

	// The working shape table (shapes.go): the writer's, like rootPage.
	// Queries read the pinned epoch's treeState.shapes.
	shapes    []shape
	shapeRefs map[string]uint16 // ShapeKey → reference

	// choose is chooseSubtree's working set, reused by every descent of
	// the one writer.
	choose chooseScratch

	splitStrategy   SplitStrategy
	disableReinsert bool

	// Logical I/O counters (reset via ResetCounters). Atomic so the
	// read-only query path can run under a shared lock.
	nodeReads  atomic.Int64
	nodeWrites atomic.Int64

	// Update statistics for the Fig. 11 experiment.
	insertStats UpdateStats
	deleteStats UpdateStats
}

// UpdateStats accumulates the paper's update-cost breakdown.
type UpdateStats struct {
	Ops        int64
	PageReads  int64 // logical node reads
	PageWrites int64 // logical node writes
	CPUTime    time.Duration
}

// New creates an empty index.
func New(opt Options) (*Tree, error) {
	if opt.Dim < 1 {
		return nil, fmt.Errorf("core: dimensionality %d", opt.Dim)
	}
	m := opt.CatalogSize
	if m == 0 {
		if opt.Kind == UPCR {
			m = 9
		} else {
			m = 15
		}
	}
	if m < 2 {
		return nil, fmt.Errorf("core: catalog size %d too small", m)
	}
	store := opt.Store
	if store == nil {
		store = pagefile.NewMemStore()
	}
	meta := pagefile.InvalidPage
	if opt.Persist {
		var err error
		if meta, err = store.Alloc(); err != nil {
			return nil, err
		}
	}
	t, err := newTree(opt.Kind, opt.Dim, m, store, meta, 0, opt)
	if err != nil {
		return nil, err
	}
	t.data = pagefile.NewDataFile(t.store)

	root, err := t.allocNode(0)
	if err != nil {
		return nil, err
	}
	if err := t.writeNode(root); err != nil {
		return nil, err
	}
	t.rootPage = root.page
	t.rootLevel = 0
	// Commit the empty tree as epoch 1 so snapshots exist from birth and
	// the copy-on-write discipline applies to every later mutation.
	if err := t.Commit(); err != nil {
		return nil, err
	}
	return t, nil
}

// newTree is the constructor body New and Open share: it resolves the
// runtime options and wires the versioned store, write buffer, node cache
// and capacities for a tree of the given structure. The caller still owes
// the data file, the root and the first committed state.
func newTree(kind Kind, dim, m int, store pagefile.Store, meta pagefile.PageID, epoch uint64, opt Options) (*Tree, error) {
	bufPages := opt.BufferPages
	if bufPages == 0 {
		bufPages = 256
	}
	samples := opt.MCSamples
	if samples == 0 {
		samples = 10000
	}
	vs := pagefile.NewVersionedStore(store, epoch)
	t := &Tree{
		kind:    kind,
		dim:     dim,
		cat:     pcr.UniformCatalog(m),
		store:   vs,
		vs:      vs,
		meta:    meta,
		qcache:  pcr.NewQuantileCache(),
		samples: samples,

		shapeRefs: make(map[string]uint16),

		splitStrategy:   opt.SplitStrategy,
		disableReinsert: opt.DisableReinsert,
	}
	t.pool = pagefile.NewBufferPool(t.store, bufPages)
	t.vs.AttachPool(t.pool)
	t.attachNodeCache(opt.NodeCacheEntries)
	leafCap, innerCap := capacities(kind, dim, m)
	t.leafEntrySize, t.innerEntrySize = entrySizes(kind, dim, m)
	if leafCap < 4 || innerCap < 4 {
		return nil, fmt.Errorf("core: %v with d=%d m=%d yields fanout %d/%d < 4; reduce the catalog",
			kind, dim, m, leafCap, innerCap)
	}
	t.minLeaf = max1(leafCap*2/5) * t.leafEntrySize
	t.minInner = max1(innerCap*2/5) * t.innerEntrySize
	t.reinsertLeaf = max1(leafCap*3/10) * t.leafEntrySize
	t.reinsertInner = max1(innerCap*3/10) * t.innerEntrySize
	t.compactEntrySize, t.leafCap, t.innerCap = t.leafEntrySize, leafCap, innerCap
	if kind == UTree {
		t.compactEntrySize = compactSize(dim)
		t.leafCap = pageBytes / t.compactEntrySize
	}
	return t, nil
}

func max1(v int) int {
	if v < 1 {
		return 1
	}
	return v
}

// Kind returns the index variant.
func (t *Tree) Kind() Kind { return t.kind }

// Dim returns the data dimensionality.
func (t *Tree) Dim() int { return t.dim }

// Catalog returns the U-catalog.
func (t *Tree) Catalog() pcr.Catalog { return t.cat }

// Len returns the number of indexed objects.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels.
func (t *Tree) Height() int { return t.rootLevel + 1 }

// Fanout reports the leaf and intermediate node capacities (for Table 1
// style reporting): the most entries a node holds. Capacity is counted in
// bytes, so a U-tree leaf's is in compact entries, the form of an object
// with a shape — 85 in 2-D, 63 in 3-D; a leaf of unkeyed (full) entries
// holds 36 or 25, and a mixed one what fits between.
func (t *Tree) Fanout() (leaf, inner int) { return t.leafCap, t.innerCap }

// SizeBytes reports total pages × page size (index + data pages).
func (t *Tree) SizeBytes() int64 {
	return int64(t.store.NumPages()) * pagefile.PageSize
}

// IndexPages returns the number of tree pages (excludes data pages), walking
// the tree; O(nodes).
func (t *Tree) IndexPages() (int, error) {
	count := 0
	err := t.walk(t.rootPage, t.rootLevel, func(n *node) error {
		count++
		return nil
	})
	return count, err
}

// InsertStats and DeleteStats expose the accumulated update costs.
func (t *Tree) InsertStats() UpdateStats { return t.insertStats }
func (t *Tree) DeleteStats() UpdateStats { return t.deleteStats }

// ResetCounters zeroes the logical I/O counters and update stats.
func (t *Tree) ResetCounters() {
	t.nodeReads.Store(0)
	t.nodeWrites.Store(0)
	t.insertStats = UpdateStats{}
	t.deleteStats = UpdateStats{}
}

// CacheStats reports the write buffer's hit/miss counters: node pages the
// writer read back from its own dirty pages, and node pages read from the
// store.
func (t *Tree) CacheStats() (hits, misses int64) { return t.pool.HitRate() }

// attachNodeCache builds the decoded-node cache per Options.NodeCacheEntries
// (0 → default, negative → disabled) and registers its invalidation hook
// with the versioned store, so entries drop the moment their page is
// physically freed.
func (t *Tree) attachNodeCache(entries int) {
	if entries < 0 {
		return
	}
	if entries == 0 {
		entries = defaultNodeCacheEntries
	}
	t.ncache = newNodeCache(entries)
	t.vs.AttachInvalidator(t.ncache.invalidate)
}

// NodeCacheStats reports the decoded-node cache's cumulative hit/miss
// counters (both zero when the cache is disabled).
func (t *Tree) NodeCacheStats() (hits, misses int64) {
	if t.ncache == nil {
		return 0, 0
	}
	return t.ncache.stats()
}

// Flush writes the buffered data page and all buffered node pages through
// to the store and drains whatever retired pages the current snapshot pins
// allow (writer-side, like Commit).
func (t *Tree) Flush() error {
	if err := t.data.Flush(); err != nil {
		return err
	}
	if err := t.pool.Flush(); err != nil {
		return err
	}
	return t.vs.Reclaim()
}

// checkObject rejects an object the tree cannot index: one without a pdf,
// of another dimensionality, or whose region is not a finite box.
func (t *Tree) checkObject(o Object) error {
	if o.PDF == nil {
		return fmt.Errorf("core: object %d has no pdf", o.ID)
	}
	if o.PDF.Dim() != t.dim {
		return fmt.Errorf("core: object dim %d, tree dim %d", o.PDF.Dim(), t.dim)
	}
	mbr := o.PDF.MBR()
	for i, lo := range mbr.Lo {
		if hi := mbr.Hi[i]; !(lo <= hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
			return fmt.Errorf("core: object %d: region %v is not a finite box", o.ID, mbr)
		}
	}
	return nil
}

// leafEntry derives the leaf entry of a checked object, without its data
// address. A keyed U-tree entry carries its shape's fit, fitted once per
// shape, and nothing else; an unkeyed one computes its PCRs and fits its
// float32 CFBs; a U-PCR entry holds its PCR list, from its shape's offsets
// where it has a shape. It reads no tree state beyond the shape table, which
// only the writer's shapeRef extends, so BulkLoad runs it on several
// goroutines once every object has its reference.
func (t *Tree) leafEntry(o Object, shape uint16) entry {
	e := entry{id: o.ID, mbr: o.PDF.MBR(), shape: shape}
	var fit *pcr.Shape
	if shape != 0 {
		fit = t.shapes[shape-1].fit
	}
	switch {
	case t.kind == UTree && fit != nil:
		e.fit = fit
	case t.kind == UTree:
		pcrs := pcr.Compute(o.PDF, t.cat, nil)
		e.out, e.in = pcr.FitOut(pcrs), pcr.FitIn(pcrs)
	default:
		if fit != nil {
			e.pcrs = fit.PCRs(o.PDF.Center(), e.mbr).Boxes
		} else {
			e.pcrs = pcr.Compute(o.PDF, t.cat, nil).Boxes
		}
		// pcr(0) is the region MBR by construction; keep them identical so
		// the shared serialization slot holds.
		e.pcrs[0] = e.mbr.Clone()
	}
	return e
}

// buildLeafEntry is checkObject + shapeRef + leafEntry.
func (t *Tree) buildLeafEntry(o Object) (entry, error) {
	if err := t.checkObject(o); err != nil {
		return entry{}, err
	}
	return t.leafEntry(o, t.shapeRef(o.PDF.ShapeKey(), o.PDF)), nil
}

// appendRecord appends the object's data record — keyed by its shape
// reference where encodeObject can — to the data file and returns its
// address.
func (t *Tree) appendRecord(o Object, shape uint16) (pagefile.DataAddr, error) {
	rec, err := encodeObject(o, shape, t.shapes)
	if err != nil {
		return pagefile.DataAddr{}, err
	}
	return t.data.Append(rec)
}

// Insert adds an object to the index. The object's details (pdf parameters)
// are appended to the data file and referenced from the leaf entry; the
// record's address is returned (see RecordMBR).
func (t *Tree) Insert(o Object) (pagefile.DataAddr, error) {
	start := time.Now()
	r0, w0 := t.nodeReads.Load(), t.nodeWrites.Load()

	e, err := t.buildLeafEntry(o)
	if err != nil {
		return pagefile.DataAddr{}, err
	}
	if e.addr, err = t.appendRecord(o, e.shape); err != nil {
		return pagefile.DataAddr{}, err
	}

	if err := t.insertEntry(e, 0, make(map[int]bool)); err != nil {
		return pagefile.DataAddr{}, err
	}
	t.size++

	t.insertStats.Ops++
	t.insertStats.PageReads += t.nodeReads.Load() - r0
	t.insertStats.PageWrites += t.nodeWrites.Load() - w0
	t.insertStats.CPUTime += time.Since(start)
	return e.addr, nil
}

// pathElem records one step of a root-to-node descent.
type pathElem struct {
	n        *node
	childIdx int
}

// insertEntry places e on a node at the target level, handling overflow via
// forced reinsertion (once per level per top-level operation) and splits.
// An overfull node is never serialized: reinsertion/split shrink it in
// memory first.
func (t *Tree) insertEntry(e entry, level int, reinserted map[int]bool) error {
	n, path, err := t.choosePath(e, level)
	if err != nil {
		return err
	}
	n.entries = append(n.entries, e)
	if t.entryBytes(n.entries, n.leaf()) <= pageBytes {
		if err := t.writeNode(n); err != nil {
			return err
		}
		return t.refreshPath(path, n)
	}
	// Ancestors must cover the new entry regardless of how the overflow is
	// resolved; n itself is rewritten by the overflow treatment.
	if err := t.refreshPath(path, n); err != nil {
		return err
	}
	return t.handleOverflow(n, path, reinserted)
}

// choosePath descends to the insertion node at the target level using the
// summed-metric ChooseSubtree (Section 5.3), returning the node and the
// root-to-parent path.
func (t *Tree) choosePath(e entry, level int) (*node, []pathElem, error) {
	n, err := t.readNode(t.rootPage, t.rootLevel)
	if err != nil {
		return nil, nil, err
	}
	eBoxes := t.boundary(&e, level == 0)
	var path []pathElem
	for n.level > level {
		idx := t.chooseSubtree(n, eBoxes)
		path = append(path, pathElem{n: n, childIdx: idx})
		child, err := t.readNode(n.entries[idx].child, n.level-1)
		if err != nil {
			return nil, nil, err
		}
		n = child
	}
	return n, path, nil
}

// chooseScratch is chooseSubtree's working set: rectangles laid over one
// flat coordinate slice, reused from call to call. It belongs to the writer
// — mutations are serialised, so there is never more than one descent.
type chooseScratch struct {
	coords []float64
	rects  []geom.Rect
}

// take returns n rectangles of dimensionality d over the scratch's
// coordinates, with undefined contents.
func (s *chooseScratch) take(n, d int) []geom.Rect {
	if cap(s.coords) < 2*d*n {
		s.coords = make([]float64, 2*d*n)
	}
	if cap(s.rects) < n {
		s.rects = make([]geom.Rect, n)
	}
	rects := s.rects[:n]
	for k := range rects {
		c := s.coords[2*d*k : 2*d*(k+1)]
		rects[k] = geom.Rect{Lo: c[:d:d], Hi: c[d:]}
	}
	return rects
}

// chooseSubtree picks the child entry of n minimizing the summed penalty:
// overlap enlargement when children are leaves, else area enlargement, with
// summed area as tiebreak (the R* criteria with each metric replaced by its
// sum over the catalog, Section 5.3).
//
// Every child's box at every catalog value is materialized once, so the
// overlap term — children × catalog × siblings — reads rectangles instead
// of re-interpolating a sibling per term. The interpolation (interpInto)
// and the summation order (catalog outer, siblings inner) are those of the
// direct formulation kept in choose_test.go; what is left out — terms that
// are exactly zero, and the rest of a sum that has already lost — cannot
// change the comparison, so the index chosen is the same to the bit.
func (t *Tree) chooseSubtree(n *node, eBoxes []geom.Rect) int {
	m := t.cat.Size()
	ne := len(n.entries)
	rects := t.choose.take(ne*m+len(eBoxes)+m, t.dim)
	at := rects[:ne*m] // child k at catalog index j is at[k*m+j]
	boundary := rects[ne*m : ne*m+len(eBoxes)]
	grown := rects[ne*m+len(eBoxes):]
	for k := range n.entries {
		t.boxesAt(at[k*m:], n.entries[k].boxes)
	}
	best := 0
	bestOv, bestEnl, bestArea := inf(), inf(), inf()
	for i := range n.entries {
		// The candidate's boundary after absorbing eBoxes, then its boxes.
		// A candidate that already contains eBoxes does not grow: every
		// overlap term below is x − x, and no sibling needs visiting.
		grows := false
		for b, box := range n.entries[i].boxes {
			copy(boundary[b].Lo, box.Lo)
			copy(boundary[b].Hi, box.Hi)
			grows = grows || !box.Contains(eBoxes[b])
		}
		unionBoundaries(boundary, eBoxes)
		t.boxesAt(grown, boundary)
		var dOv, enl, area float64
		old := at[i*m : (i+1)*m]
		for j := 0; j < m; j++ {
			if n.level == 1 && grows {
				for k := 0; k < ne; k++ {
					if k == i {
						continue
					}
					// The union moves faces outward only, so old[j] ⊆
					// grown[j]: a sibling the grown box does not overlap
					// contributes 0 − 0, and no term is negative.
					// (interpInto can break the inclusion in a face's last
					// ulp at p_m, which moves a term by as much.)
					other := at[k*m+j]
					if ov := grown[j].Overlap(other); ov != 0 {
						dOv += ov - old[j].Overlap(other)
					}
				}
				// dOv only grows from here, and past the incumbent's the
				// candidate has lost on the first criterion.
				if dOv > bestOv {
					break
				}
			}
			a := old[j].Area()
			enl += grown[j].Area() - a
			area += a
		}
		// Above level 1 dOv is zero throughout and the order is by area
		// enlargement, then area.
		if dOv < bestOv || (dOv == bestOv && enl < bestEnl) ||
			(dOv == bestOv && enl == bestEnl && area < bestArea) {
			bestOv, bestEnl, bestArea, best = dOv, enl, area, i
		}
	}
	return best
}

func inf() float64 { return 1e308 }

// summedCenterDist is Σ_j CDIST(aBoxes_j, bBoxes_j).
func (t *Tree) summedCenterDist(a, b []geom.Rect) float64 {
	var s float64
	for j := 0; j < t.cat.Size(); j++ {
		s += t.boxAt(a, j).CenterDist(t.boxAt(b, j))
	}
	return s
}

// rootBox is a root's boundary box at p = 0 — the rectangle containing every
// indexed object's region MBR (containment chain: inner boxes at p = 0 ⊇
// cfb_out(0) ⊇ pcr(0) = the object MBR) — or the zero Rect for an empty
// root.
func (t *Tree) rootBox(n *node) geom.Rect {
	if len(n.entries) == 0 {
		return geom.Rect{}
	}
	return t.boxAt(t.nodeBoundary(n), 0)
}

// nodeBoundary computes a node's boundary boxes (union over its entries).
func (t *Tree) nodeBoundary(n *node) []geom.Rect {
	b := cloneBoxes(t.boundary(&n.entries[0], n.leaf()))
	for i := 1; i < len(n.entries); i++ {
		unionBoundaries(b, t.boundary(&n.entries[i], n.leaf()))
	}
	return b
}

// refreshPath recomputes the parent entries' boxes bottom-up along the
// descent path after child mutation, and refreshes the child page pointer
// — copy-on-write relocates a rewritten child to a shadow page, so the
// parent entry must follow it.
func (t *Tree) refreshPath(path []pathElem, target *node) error {
	child := target
	for i := len(path) - 1; i >= 0; i-- {
		pe := path[i]
		pe.n.entries[pe.childIdx].boxes = t.nodeBoundary(child)
		pe.n.entries[pe.childIdx].child = child.page
		if err := t.writeNode(pe.n); err != nil {
			return err
		}
		child = pe.n
	}
	return nil
}

// handleOverflow applies R* overflow treatment: forced reinsertion the
// first time a level overflows within one top-level operation (never for
// the root), split otherwise.
func (t *Tree) handleOverflow(n *node, path []pathElem, reinserted map[int]bool) error {
	if t.entryBytes(n.entries, n.leaf()) <= pageBytes {
		return nil
	}
	if len(path) > 0 && !reinserted[n.level] && !t.disableReinsert {
		reinserted[n.level] = true
		return t.forceReinsert(n, path, reinserted)
	}
	return t.split(n, path, reinserted)
}

// forceReinsert removes the entries whose summed centroid distance from the
// node's boundary is largest, farthest first until they make up 30 % of a
// node of full entries (reinsertLeaf, reinsertInner bytes), then reinserts
// them closest-first.
func (t *Tree) forceReinsert(n *node, path []pathElem, reinserted map[int]bool) error {
	nodeBoxes := t.nodeBoundary(n)
	type cand struct {
		idx  int
		dist float64
	}
	cands := make([]cand, len(n.entries))
	for i := range n.entries {
		cands[i] = cand{i, t.summedCenterDist(t.boundary(&n.entries[i], n.leaf()), nodeBoxes)}
	}
	// Selection-sort the p farthest (p is small).
	share := t.reinsertLeaf
	if !n.leaf() {
		share = t.reinsertInner
	}
	p := 0
	for taken := 0; taken < share; p++ {
		maxJ := p
		for j := p + 1; j < len(cands); j++ {
			if cands[j].dist > cands[maxJ].dist {
				maxJ = j
			}
		}
		cands[p], cands[maxJ] = cands[maxJ], cands[p]
		taken += t.entrySize(&n.entries[cands[p].idx], n.leaf())
	}
	removeSet := make(map[int]bool, p)
	removed := make([]entry, 0, p)
	for i := 0; i < p; i++ {
		removeSet[cands[i].idx] = true
	}
	kept := make([]entry, 0, len(n.entries)-p)
	for i := range n.entries {
		if removeSet[i] {
			removed = append(removed, n.entries[i])
		} else {
			kept = append(kept, n.entries[i])
		}
	}
	n.entries = kept
	if err := t.writeNode(n); err != nil {
		return err
	}
	if err := t.refreshPath(path, n); err != nil {
		return err
	}
	// Close reinsert: the selection placed the farthest first; reinsert in
	// reverse so the closest go back in first.
	for i := len(removed) - 1; i >= 0; i-- {
		if err := t.insertEntry(removed[i], n.level, reinserted); err != nil {
			return err
		}
	}
	return nil
}

// split divides an overflowing node. Per Section 5.3, the entry
// distribution is decided by the R* split applied to the e.MBR(p_median)
// rectangles of the node's entries (other strategies available as ablation
// knobs).
func (t *Tree) split(n *node, path []pathElem, reinserted map[int]bool) error {
	minFill := t.minLeaf
	if !n.leaf() {
		minFill = t.minInner
	}
	li, ri := t.chooseSplit(n, minFill)
	left := make([]entry, 0, len(li))
	right := make([]entry, 0, len(ri))
	for _, i := range li {
		left = append(left, n.entries[i])
	}
	for _, i := range ri {
		right = append(right, n.entries[i])
	}
	n.entries = left
	sib, err := t.allocNode(n.level)
	if err != nil {
		return err
	}
	sib.entries = right
	if err := t.writeNode(n); err != nil {
		return err
	}
	if err := t.writeNode(sib); err != nil {
		return err
	}

	if len(path) == 0 {
		// Root split: grow the tree. The new root is the root before it is
		// written, so writeNode records its box.
		newRoot, err := t.allocNode(n.level + 1)
		if err != nil {
			return err
		}
		newRoot.entries = []entry{
			{child: n.page, boxes: t.nodeBoundary(n)},
			{child: sib.page, boxes: t.nodeBoundary(sib)},
		}
		t.rootPage = newRoot.page
		t.rootLevel = newRoot.level
		return t.writeNode(newRoot)
	}

	parent := path[len(path)-1]
	parent.n.entries[parent.childIdx].boxes = t.nodeBoundary(n)
	parent.n.entries[parent.childIdx].child = n.page // COW may have moved n
	parent.n.entries = append(parent.n.entries, entry{child: sib.page, boxes: t.nodeBoundary(sib)})
	if t.entryBytes(parent.n.entries, false) <= pageBytes {
		if err := t.writeNode(parent.n); err != nil {
			return err
		}
		return t.refreshPath(path[:len(path)-1], parent.n)
	}
	if err := t.refreshPath(path[:len(path)-1], parent.n); err != nil {
		return err
	}
	return t.handleOverflow(parent.n, path[:len(path)-1], reinserted)
}

// chooseSplit returns the two index groups for splitting node n according
// to the tree's split strategy.
func (t *Tree) chooseSplit(n *node, minFill int) (left, right []int) {
	boundaries := make([][]geom.Rect, len(n.entries))
	for i := range n.entries {
		boundaries[i] = t.boundary(&n.entries[i], n.leaf())
	}
	size := make([]int, len(n.entries))
	for i := range n.entries {
		size[i] = t.entrySize(&n.entries[i], n.leaf())
	}
	rectsAt := func(j int) []geom.Rect {
		rects := make([]geom.Rect, len(boundaries))
		for i := range boundaries {
			rects[i] = t.boxAt(boundaries[i], j)
		}
		return rects
	}
	switch t.splitStrategy {
	case SplitAtZero:
		return splitGroups(rectsAt(0), size, minFill)
	case SplitSummed:
		// Evaluate the R* split at every catalog value, score each
		// partition by its summed group overlap, keep the best.
		bestScore := inf()
		for j := 0; j < t.cat.Size(); j++ {
			li, ri := splitGroups(rectsAt(j), size, minFill)
			score := t.partitionOverlap(boundaries, li, ri)
			if score < bestScore {
				bestScore = score
				left, right = li, ri
			}
		}
		return left, right
	default: // SplitMedian — the paper's heuristic.
		return splitGroups(rectsAt(t.cat.MedianIndex()), size, minFill)
	}
}

// partitionOverlap scores a candidate split: Σ_j OVERLAP(mbr(left, j),
// mbr(right, j)).
func (t *Tree) partitionOverlap(boundaries [][]geom.Rect, li, ri []int) float64 {
	groupBoxes := func(idx []int) []geom.Rect {
		g := cloneBoxes(boundaries[idx[0]])
		for _, i := range idx[1:] {
			unionBoundaries(g, boundaries[i])
		}
		return g
	}
	lb := groupBoxes(li)
	rb := groupBoxes(ri)
	var s float64
	for j := 0; j < t.cat.Size(); j++ {
		s += t.boxAt(lb, j).Overlap(t.boxAt(rb, j))
	}
	return s
}

// walk visits every node of the subtree at page, whose root is at level.
func (t *Tree) walk(page pagefile.PageID, level int, fn func(*node) error) error {
	n, err := t.readNode(page, level)
	if err != nil {
		return err
	}
	if err := fn(n); err != nil {
		return err
	}
	if n.leaf() {
		return nil
	}
	for i := range n.entries {
		if err := t.walk(n.entries[i].child, n.level-1, fn); err != nil {
			return err
		}
	}
	return nil
}
