package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/pagefile"
	"repro/internal/pcr"
	"repro/internal/updf"
)

// Options configures a Tree.
type Options struct {
	// Dim is the data dimensionality (required, ≥ 1).
	Dim int
	// Kind selects U-tree (default) or U-PCR.
	Kind Kind
	// CatalogSize m, at most MaxCatalogSize; 0 selects the paper defaults
	// (15 for U-tree, 9 for U-PCR).
	CatalogSize int
	// Store supplies page storage; nil selects an in-memory store. The
	// tree writes it directly and keeps the copy-on-write epochs itself
	// (epoch.go); a bare MemStore, or a bare FileStore on unix, lends
	// readers its committed pages (readCommitted).
	Store pagefile.Store
	// Persist makes the index reopenable: New reserves a metadata page —
	// the first page it allocates on Store, so the address is stable on a
	// fresh store — and every Commit writes the tree metadata to it before
	// publishing the epoch (the crash-consistency point, see Commit). Pass
	// MetaPage() to Open. Open ignores the field: a reopened tree always
	// persists.
	Persist bool
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
	// read and the decode. A cached node views its page where the store
	// lends it (readCommitted) and costs its 128-byte struct, else about
	// one page of heap; negative disables the cache, 0 selects 1024
	// entries. A full cache evicts its least recently used leaf,
	// and an inner node only when it holds no leaf. Coherence is automatic
	// — entries drop when the tree physically frees their page,
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

	// store is the caller's page storage (Options.Store); all tree I/O —
	// node pages, data pages, metadata — goes to it, and ep (epoch.go)
	// keeps the copy-on-write discipline over it. view is the same store
	// where it lends its pages in place — a bare MemStore, or a bare
	// FileStore on unix — whose committed pages a reader views
	// (readCommitted).
	store pagefile.Store
	view  viewer
	ep    epochs

	// dirty holds the pages the open batch has written, node and data
	// pages alike, each in one buffer until Commit writes it once
	// (snapshot.go): the writer's, like rootPage, so it has no lock and no
	// reader touches it. It holds fresh pages and, once an append reached
	// it, the committed append page. dirtyHits and dirtyMisses count the
	// writer's node reads served from it and read from the store
	// (CacheStats).
	dirty                  map[pagefile.PageID][]byte
	dirtyHits, dirtyMisses atomic.Int64

	// appendPage is the data page appends go to (datapage.go), InvalidPage
	// before the first; appendBuf is its bytes, nil until an append needs
	// them. The writer's: they outlive a commit, so the next batch's first
	// append reads no page, and a rollback drops them.
	appendPage pagefile.PageID
	appendBuf  []byte

	// ncache caches decoded nodes of committed pages (nil when disabled);
	// consulted only by the query paths — mutation descents decode
	// private copies they may edit in place.
	ncache *nodeCache

	// meta is the page Commit persists the tree metadata to; InvalidPage
	// for trees that are never reopened.
	meta pagefile.PageID

	rootPage  pagefile.PageID
	rootLevel int
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
	centreEntrySize               int
	minLeaf, minInner             int
	reinsertLeaf, reinsertInner   int

	samples int

	// The working ID directory and its journal since the last Commit
	// (directory.go): the writer's, like rootPage.
	dir  directory
	undo []dirUndo

	// The working shape table (shapes.go): the writer's, like rootPage.
	// Queries read the pinned epoch's treeState.shapes.
	shapes    []shape
	shapeRefs map[string]uint16 // ShapeKey → reference
	// unshaped counts the working tree's U-tree leaf entries whose faces
	// are not their table shape's, translated: a reference to no shape in
	// the table, or an entry a page stores full — an unkeyed object's, or
	// a keyed one's that a file from before compact entries holds. While
	// there is one, no ancestor's MBR⊤ is known to bound the faces the
	// descent's quantile test assumes (rangeQuery). writeNode keeps it as
	// it writes leaves, each leaf's share in node.unshaped; condense takes
	// a freed leaf's off; Rollback restores the committed count, and
	// Open's walk counts it afresh.
	unshaped int

	// ws is the writer's scratch (writerScratch).
	ws writerScratch
	// cut is chooseSubtree's candidate cut, chooseCut; only a test lifts
	// it, to build the tree the full overlap test builds.
	cut int

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

// MaxCatalogSize is the largest catalog size m a tree takes, in New and in
// Open. Every shape fits 2m quantile offsets per dimension, and Open fits
// the whole persisted table, so m bounds what opening a file costs. The
// paper's Fig. 8 varies m up to 12, the catalog ablation up to 20, and the
// default is 15.
const MaxCatalogSize = 32

// Check returns the error New returns for opt's structure — its
// dimensionality, catalog size and fan-outs — without touching a store, so
// a caller can refuse opt before it creates one.
func (opt Options) Check() error {
	m := opt.catalogSize()
	switch {
	case opt.Dim < 1:
		return fmt.Errorf("core: dimensionality %d", opt.Dim)
	case m < 2:
		return fmt.Errorf("core: catalog size %d too small", m)
	case m > MaxCatalogSize:
		return fmt.Errorf("core: catalog size %d above the maximum %d", m, MaxCatalogSize)
	}
	return checkFanout(opt.Kind, opt.Dim, m)
}

// catalogSize is Options.CatalogSize, 0 resolved to the paper default.
func (opt Options) catalogSize() int {
	switch {
	case opt.CatalogSize != 0:
		return opt.CatalogSize
	case opt.Kind == UPCR:
		return 9
	}
	return 15
}

// checkFanout refuses a structure whose nodes would hold fewer than 4
// entries.
func checkFanout(kind Kind, dim, m int) error {
	if leafCap, innerCap := capacities(kind, dim, m); leafCap < 4 || innerCap < 4 {
		return fmt.Errorf("core: %v with d=%d m=%d yields fanout %d/%d < 4; reduce the catalog",
			kind, dim, m, leafCap, innerCap)
	}
	return nil
}

// New creates an empty index.
func New(opt Options) (*Tree, error) {
	if err := opt.Check(); err != nil {
		return nil, err
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
	t := newTree(opt.Kind, opt.Dim, opt.catalogSize(), store, meta, 0, opt)

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
// runtime options and wires the store at the given committed epoch, the
// node cache and the capacities for a tree of the given structure, which
// the caller has checked. The caller still owes the append page, the root
// and the first committed state.
func newTree(kind Kind, dim, m int, store pagefile.Store, meta pagefile.PageID, epoch uint64, opt Options) *Tree {
	samples := opt.MCSamples
	if samples == 0 {
		samples = 10000
	}
	t := &Tree{
		kind:    kind,
		dim:     dim,
		cat:     pcr.UniformCatalog(m),
		store:   store,
		ep:      epochs{epoch: epoch, pins: make(map[uint64]int), fresh: make(map[pagefile.PageID]bool)},
		meta:    meta,
		samples: samples,
		dirty:   make(map[pagefile.PageID][]byte),

		appendPage: pagefile.InvalidPage,

		shapeRefs: make(map[string]uint16),

		splitStrategy:   opt.SplitStrategy,
		disableReinsert: opt.DisableReinsert,
		cut:             chooseCut,
	}
	t.view, _ = store.(viewer)
	t.attachNodeCache(opt.NodeCacheEntries)
	leafCap, innerCap := capacities(kind, dim, m)
	t.leafEntrySize, t.innerEntrySize = entrySizes(kind, dim, m)
	t.minLeaf = max1(leafCap*2/5) * t.leafEntrySize
	t.minInner = max1(innerCap*2/5) * t.innerEntrySize
	t.reinsertLeaf = max1(leafCap*3/10) * t.leafEntrySize
	t.reinsertInner = max1(innerCap*3/10) * t.innerEntrySize
	t.compactEntrySize, t.centreEntrySize = t.leafEntrySize, t.leafEntrySize
	t.leafCap, t.innerCap = leafCap, innerCap
	if kind == UTree {
		t.compactEntrySize, t.centreEntrySize = compactSize(dim), centreSize(dim)
		t.leafCap = pageBytes / t.centreEntrySize
	}
	return t
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

// Len returns the number of objects in the working tree.
func (t *Tree) Len() int { return t.dir.len() }

// Height returns the number of levels.
func (t *Tree) Height() int { return t.rootLevel + 1 }

// Fanout reports the leaf and intermediate node capacities (for Table 1
// style reporting): the most entries a node holds. Capacity is counted in
// bytes, so a U-tree leaf's is in centre entries, the form of a ball with a
// shape — 127 in 2-D, 102 in 3-D; a leaf of compact entries (keyed objects
// of another family) holds 85 or 63, one of unkeyed (full) entries 36 or
// 25, and a mixed one what fits between.
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

// CacheStats reports the writer's node reads: hits served from the open
// batch's dirty pages, misses read from the store. A query or a snapshot's
// check reads committed pages straight from the store and counts in
// neither.
func (t *Tree) CacheStats() (hits, misses int64) { return t.dirtyHits.Load(), t.dirtyMisses.Load() }

// attachNodeCache builds the decoded-node cache per Options.NodeCacheEntries
// (0 → default, negative → disabled); dropPage drops an entry the moment
// its page is physically freed.
func (t *Tree) attachNodeCache(entries int) {
	if entries < 0 {
		return
	}
	if entries == 0 {
		entries = defaultNodeCacheEntries
	}
	t.ncache = newNodeCache(entries)
}

// NodeCacheStats reports the decoded-node cache's cumulative hit/miss
// counters (both zero when the cache is disabled).
func (t *Tree) NodeCacheStats() (hits, misses int64) {
	if t.ncache == nil {
		return 0, 0
	}
	return t.ncache.stats()
}

// checkObject rejects an object the tree cannot index: one without a pdf,
// of another dimensionality, or whose region is not a finite box. Past the
// dimension check it writes the region's MBR into mbr (regionInto), whose
// coordinate slices the caller provides.
func (t *Tree) checkObject(o Object, mbr geom.Rect) error {
	if o.PDF == nil {
		return fmt.Errorf("core: object %d has no pdf", o.ID)
	}
	if o.PDF.Dim() != t.dim {
		return fmt.Errorf("core: object dim %d, tree dim %d", o.PDF.Dim(), t.dim)
	}
	regionInto(o.PDF, mbr)
	for i, lo := range mbr.Lo {
		if hi := mbr.Hi[i]; !(lo <= hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
			return fmt.Errorf("core: object %d: region %v is not a finite box", o.ID, mbr)
		}
	}
	return nil
}

// regionInto writes p's region MBR into dst: a Recentrer's without
// allocating (MBRAt at its own centre, bit for bit MBR()), any other's by
// copying MBR().
func regionInto(p updf.PDF, dst geom.Rect) {
	if rc, ok := p.(updf.Recentrer); ok {
		rc.MBRAt(p.Center(), dst)
		return
	}
	r := p.MBR()
	copy(dst.Lo, r.Lo)
	copy(dst.Hi, r.Hi)
}

// leafEntry derives the leaf entry of a checked object whose region MBR is
// mbr, without its data address; the entry keeps mbr. A keyed U-tree entry
// carries its shape's fit, fitted once per shape, and its centre where the
// shape is recentrable, nothing else; an unkeyed one computes its PCRs and
// fits its float32 CFBs; a U-PCR entry holds its PCR list, from its
// shape's offsets where it has a shape. It reads no tree state beyond the
// shape table, which only the writer's shapeRef extends, so BulkLoad runs
// it on several goroutines once every object has its reference.
func (t *Tree) leafEntry(o Object, shape uint16, mbr geom.Rect) entry {
	e := entry{id: o.ID, mbr: mbr, shape: shape}
	var fit *pcr.Shape
	if shape != 0 {
		fit = t.shapes[shape-1].fit
	}
	switch {
	case t.kind == UTree && fit != nil:
		e.fit = fit
		if fit.Recentrer() != nil {
			// Its MBR is the shape's box at its centre (Recentrer.MBRAt), to
			// the bit: the shapes share a ShapeKey, so a radius. The centre
			// is the pdf's own: the entry is encoded before Insert or
			// BulkLoad returns, and nothing keeps it after.
			e.ctr = o.PDF.Center()
		}
	case t.kind == UTree:
		pcrs := pcr.Compute(o.PDF, t.cat, nil)
		e.out, e.in = pcr.FitOut(pcrs), pcr.FitIn(pcrs)
	default:
		if fit != nil {
			e.boxes = fit.PCRs(o.PDF.Center(), e.mbr).Boxes
		} else {
			e.boxes = pcr.Compute(o.PDF, t.cat, nil).Boxes
		}
		// pcr(0) is the region MBR by construction; keep them identical so
		// the shared serialization slot holds.
		e.boxes[0] = e.mbr.Clone()
	}
	return e
}

// buildLeafEntry is checkObject + shapeRef + leafEntry.
func (t *Tree) buildLeafEntry(o Object) (entry, error) {
	mbr := geom.Rect{Lo: make(geom.Point, t.dim), Hi: make(geom.Point, t.dim)}
	if err := t.checkObject(o, mbr); err != nil {
		return entry{}, err
	}
	return t.leafEntry(o, t.shapeRef(o.PDF.ShapeKey(), o.PDF), mbr), nil
}

// Insert adds an object to the index. An ID the tree already holds is
// ErrDuplicateID, and nothing is mutated. The object's details (pdf
// parameters) are appended to a data page and referenced from the leaf
// entry and the directory.
func (t *Tree) Insert(o Object) error {
	if t.Holds(o.ID) {
		return fmt.Errorf("%w: id %d", ErrDuplicateID, o.ID)
	}
	start := time.Now()
	r0, w0 := t.nodeReads.Load(), t.nodeWrites.Load()

	e, err := t.buildLeafEntry(o)
	if err != nil {
		return err
	}
	if e.addr, err = t.appendRecord(o, e.shape); err != nil {
		return err
	}

	if err := t.insertEntry(e, 0, make(map[int]bool)); err != nil {
		return err
	}
	t.journal(o.ID)
	t.dir.set(o.ID, e.addr)

	t.insertStats.Ops++
	t.insertStats.PageReads += t.nodeReads.Load() - r0
	t.insertStats.PageWrites += t.nodeWrites.Load() - w0
	t.insertStats.CPUTime += time.Since(start)
	return nil
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
	b := t.boundary(&e, level == 0, &t.ws.bound)
	eBoxes := t.ws.entry.take(len(b), t.dim)
	copyBoxes(eBoxes, b)
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

// writerScratch is the writer's working memory, reused from call to call
// so that the insert and bulk-load paths allocate nothing per entry they
// look at. It belongs to the writer: mutations are serialised, so there is
// never more than one descent, split or load at a time.
type writerScratch struct {
	bound  boundScratch  // boundary's and unionBoundary's
	entry  rectSlab      // the boundary of the entry choosePath places
	pair   rectSlab      // summedCenterDist's two boxes, BulkLoad's median box
	choose chooseScratch // chooseSubtree's
}

// chooseScratch is chooseSubtree's working set.
type chooseScratch struct {
	rects            rectSlab
	grows            []bool
	enl, area, hulls []float64
	order, near      []int
}

// chooseCut is R*'s CHOOSE_SUBTREE_P (SNIPPETS.md snippet 1): at level 1,
// overlap enlargement is scored only for the chooseCut children of least
// area enlargement, since its cost is quadratic in the fan-out.
const chooseCut = 32

// chooseSubtree picks the child entry of n minimizing the summed penalty:
// overlap enlargement when children are leaves, else area enlargement, with
// summed area as tiebreak (the R* criteria with each metric replaced by its
// sum over the catalog, Section 5.3). At level 1 a node of more than
// chooseCut children scores overlap only for the chooseCut of least summed
// area enlargement, ties by summed area, then index — R*'s candidate cut.
//
// Every child's box at every catalog value, and its box grown by eBoxes, is
// materialized once, so the overlap term — candidates × catalog × siblings
// — reads rectangles instead of re-interpolating a sibling per term. The
// interpolation (interpInto) and the summation order (catalog outer,
// siblings inner) are those of the direct formulation kept in
// choose_test.go, and what is left out cannot change the comparison, so
// the index chosen is the same to the bit: terms that are exactly zero — a
// sibling whose hull over the catalog (the union of its materialized
// boxes) at most touches the grown candidate's on some dimension is not
// visited at all (geom.Rect's Overlap is 0 where lo ≥ hi) — and, since the
// candidates are visited in (enl, area, index) order, so that a later one
// wins only on strictly less overlap enlargement, the rest of a sum that
// has reached the incumbent's. Sums only grow where the candidate's old
// boxes lie inside its grown ones, which interpolation can break in a
// face's last ulp; such a candidate is summed in full.
func (t *Tree) chooseSubtree(n *node, eBoxes []geom.Rect) int {
	m, ne, d := t.cat.Size(), len(n.entries), t.dim
	s := &t.ws.choose
	rects := s.rects.take(2*ne*m+len(eBoxes), d)
	at := rects[:ne*m] // child k at catalog index j is at[k*m+j]
	grown := rects[ne*m : 2*ne*m]
	boundary := rects[2*ne*m:]
	s.grows, s.enl, s.area = grow(s.grows, ne), grow(s.enl, ne), grow(s.area, ne)
	for k := range n.entries {
		// The child's boundary after absorbing eBoxes, then its boxes. A
		// child that already contains eBoxes does not grow: its every
		// overlap term below is x − x.
		grows := false
		for b, box := range n.entries[k].boxes {
			copy(boundary[b].Lo, box.Lo)
			copy(boundary[b].Hi, box.Hi)
			grows = grows || !box.Contains(eBoxes[b])
		}
		old, gk := at[k*m:(k+1)*m], grown[k*m:(k+1)*m]
		t.boxesAt(old, n.entries[k].boxes)
		var enl, area float64
		if grows {
			unionBoundaries(boundary, eBoxes)
			t.boxesAt(gk, boundary)
			for j := range m {
				a := old[j].Area()
				enl += gk[j].Area() - a
				area += a
			}
		} else {
			// Its grown boxes are its boxes: every enlargement term is
			// exactly a − a = 0.
			for j := range m {
				area += old[j].Area()
			}
		}
		s.grows[k], s.enl[k], s.area[k] = grows, enl, area
	}
	if n.level != 1 {
		// Above level 1 the order is by area enlargement, then area.
		best := 0
		for i := 1; i < ne; i++ {
			if s.enl[i] < s.enl[best] || (s.enl[i] == s.enl[best] && s.area[i] < s.area[best]) {
				best = i
			}
		}
		return best
	}
	// Candidates in (enl, area, index) order, cut to the first t.cut. A
	// later one has no smaller enl, area or index, so it beats the
	// incumbent only on strictly less overlap enlargement: the winner is
	// the one of least (dOv, enl, area, index), as in index order with
	// every criterion compared.
	cands := s.order[:0]
	for i := range ne {
		cands = append(cands, i)
	}
	slices.SortFunc(cands, func(a, b int) int {
		return cmp.Or(cmp.Compare(s.enl[a], s.enl[b]), cmp.Compare(s.area[a], s.area[b]), cmp.Compare(a, b))
	})
	s.order = cands
	if ne > t.cut {
		cands = cands[:t.cut]
	}
	// Each child's hull over the catalog, and each candidate's grown hull,
	// made when the first candidate that grows needs them: 2d coordinates
	// each, lows then highs.
	var hulls []float64
	best, bestOv := cands[0], inf()
	for _, i := range cands {
		var dOv float64
		if s.grows[i] {
			// With old ⊆ grown every term is ov − oldOv ≥ 0, so dOv only
			// grows, and once it reaches the incumbent's the candidate has
			// lost. Where interpInto broke the inclusion in a face's last
			// ulp, a term may be negative: every one is summed.
			old, g := at[i*m:(i+1)*m], grown[i*m:(i+1)*m]
			mono := nested(old, g)
			if mono && bestOv <= 0 {
				continue
			}
			if hulls == nil {
				s.hulls = grow(s.hulls, 2*d*(ne+1))
				hulls = s.hulls
				for k := range ne {
					hull(hulls[2*d*k:2*d*(k+1)], at[k*m:(k+1)*m])
				}
			}
			gh := hulls[2*d*ne:]
			hull(gh, g)
			near := s.near[:0]
			for k := range ne {
				if k != i && (!mono || hullsOverlap(gh, hulls[2*d*k:2*d*(k+1)], d)) {
					near = append(near, k)
				}
			}
			s.near = near
			for j := range m {
				for _, k := range near {
					// A sibling the grown box does not overlap contributes
					// 0 − 0: the term is left out.
					other := at[k*m+j]
					if ov := g[j].Overlap(other); ov != 0 || !mono {
						dOv += ov - old[j].Overlap(other)
					}
				}
				if mono && dOv >= bestOv {
					break
				}
			}
		}
		if dOv < bestOv {
			best, bestOv = i, dOv
		}
	}
	return best
}

// nested reports whether every old[j] lies inside grown[j].
func nested(old, grown []geom.Rect) bool {
	for j := range old {
		if !grown[j].Contains(old[j]) {
			return false
		}
	}
	return true
}

// hull writes the union of boxes into h: d lows, then d highs.
func hull(h []float64, boxes []geom.Rect) {
	d := len(h) / 2
	copy(h[:d], boxes[0].Lo)
	copy(h[d:], boxes[0].Hi)
	for _, b := range boxes[1:] {
		for i := range d {
			h[i] = min(h[i], b.Lo[i])
			h[d+i] = max(h[d+i], b.Hi[i])
		}
	}
}

// hullsOverlap reports whether hulls a and b (hull's layout, d dimensions)
// may overlap with positive extent on every dimension. Where they at most
// touch on one, or one has no extent there, every pair of boxes inside
// them has Overlap exactly 0 (its math.Max of the lows is at least its
// math.Min of the highs). A NaN face compares false throughout, and the
// pair is reported as overlapping.
func hullsOverlap(a, b []float64, d int) bool {
	for i := range d {
		alo, ahi, blo, bhi := a[i], a[d+i], b[i], b[d+i]
		if alo >= bhi || blo >= ahi || alo >= ahi || blo >= bhi {
			return false
		}
	}
	return true
}

// grow returns s resized to n, reallocated only when its capacity is short;
// the contents are undefined.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func inf() float64 { return 1e308 }

// summedCenterDist is Σ_j CDIST(aBoxes_j, bBoxes_j).
func (t *Tree) summedCenterDist(a, b []geom.Rect) float64 {
	ab := t.ws.pair.take(2, t.dim)
	var s float64
	for j := 0; j < t.cat.Size(); j++ {
		t.boxInto(ab[0], a, j)
		t.boxInto(ab[1], b, j)
		s += ab[0].CenterDist(ab[1])
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

// nodeBoundary is the writer's unionBoundary.
func (t *Tree) nodeBoundary(n *node) []geom.Rect { return t.unionBoundary(n, &t.ws.bound) }

// unionBoundary computes a node's boundary boxes, the union over its
// entries' — what its parent entry holds, in a fresh allocation. A U-tree's
// are rounded outward to float32 (roundOut), the precision its intermediate
// entries hold them at, so the writer's parent entries, the recorded root
// box and what a reader decodes agree bit for bit. sc is the caller's: the
// writer's, or a snapshot check's own.
func (t *Tree) unionBoundary(n *node, sc *boundScratch) []geom.Rect {
	b := cloneBoxes(t.boundary(&n.entries[0], n.leaf(), sc))
	for i := 1; i < len(n.entries); i++ {
		unionBoundaries(b, t.boundary(&n.entries[i], n.leaf(), sc))
	}
	if t.kind == UTree {
		for _, r := range b {
			roundOut(r)
		}
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
		cands[i] = cand{i, t.summedCenterDist(t.boundary(&n.entries[i], n.leaf(), &t.ws.bound), nodeBoxes)}
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
	nb := t.innerBoxes()
	all := newBoxes(len(n.entries)*nb, t.dim)
	boundaries := make([][]geom.Rect, len(n.entries))
	size := make([]int, len(n.entries))
	for i := range n.entries {
		boundaries[i] = all[i*nb : (i+1)*nb : (i+1)*nb]
		copyBoxes(boundaries[i], t.boundary(&n.entries[i], n.leaf(), &t.ws.bound))
		size[i] = t.entrySize(&n.entries[i], n.leaf())
	}
	// Every catalog value's rectangles go in one slab: splitGroups is done
	// with one set before the next is made.
	rects := newBoxes(len(n.entries), t.dim)
	rectsAt := func(j int) []geom.Rect {
		for i := range boundaries {
			t.boxInto(rects[i], boundaries[i], j)
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
