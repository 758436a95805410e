package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/pagefile"
	"repro/internal/updf"
)

// BulkLoad builds the index bottom-up from a dataset in three stages, each
// over flat slabs — one row per object, or per node of the level below —
// rather than an edit entry per object:
//
//  1. on a copy of the objects sorted by ID, check every object and write
//     its MBR into a slab (an allocation-free MBRAt for a recentrable
//     shape) on GOMAXPROCS workers, so an invalid object — of several, the
//     one with the smallest ID — fails the load before a page is
//     allocated; hand out shape references in ID order, so a shape's
//     prototype is its object with the smallest ID, formatting a ShapeKey
//     once per distinct updf.ShapeID; then, on the workers again, encode
//     each leaf entry (without its address) and its boundary boxes into
//     two more slabs;
//  2. tile the level with Sort-Tile-Recursive (STR) packing over the
//     entries' e.MBR(p_median) centres — the geometry the incremental split
//     sorts by — in a total order: the coordinate, then the other
//     coordinates cyclically, then the entry's index (at the leaves, its
//     ID's rank), every other slab descending on the coordinate
//     (boustrophedon), so consecutive tiles are neighbours and entries tied
//     on a coordinate lie in runs along the others; the slabs of the first
//     dimension are tiled on the workers. Each sorted run is cut into
//     as many nodes as a full packing would, each with room for one more
//     entry of any form where the run has it to spare (runCutter.cut);
//  3. walk the tiles in order and append each object's detail record
//     straight into the append page, so the records of one leaf share
//     one or two adjacent data pages and data pages follow leaf order, which
//     is what lets refinement's grouping of candidates "by their associated
//     disk addresses" (paper §5) save I/O; then copy each tile's entries into
//     its leaf page with their addresses, union their boundaries into the
//     slab of the next level, and repeat stages 2 and 3 on it up to the root.
//
// Compared with one-by-one insertion it produces a tree with the page count
// of a full packing (fewer pages, fewer query I/Os) at a fraction of the
// build cost, whose first inserts neither split nor reinsert; the tree
// stays fully dynamic afterwards. Later Inserts append to the last data
// page, so the record locality is the load's, not an invariant: long churn
// spreads a leaf's records over more pages, and a BulkLoad into a fresh
// tree restores it. The tree is a function of the object set alone: not of
// the objects' order, the sort algorithm or the number of workers. It can only
// be called on an empty tree, and an ID named twice is ErrDuplicateID
// before a page is allocated. The ID directory's slabs are laid from the
// ID-sorted copy, every object at its record's address, and no map is
// built; a Rollback empties it again. Nothing of the other slabs outlives
// the call.
func (t *Tree) BulkLoad(objects []Object) error {
	if n := t.Len(); n != 0 {
		return fmt.Errorf("core: BulkLoad requires an empty tree (have %d objects)", n)
	}
	if len(objects) == 0 {
		return nil
	}
	// In ID order, the first object of a shape, its prototype, is the one
	// with the smallest ID, so is the first invalid object, and STR's last
	// tie-break, the entry's index, is its ID's rank: the tree is a function
	// of the object set. Loaders allocate pdfs in ID order as a rule, so
	// stage 1 then reads them in memory order as well.
	objects = slices.Clone(objects)
	slices.SortFunc(objects, func(a, b Object) int { return cmp.Compare(a.ID, b.ID) })
	lv, err := t.loadLeaves(objects)
	if err != nil {
		return err
	}
	// The directory's rows are the sorted objects'; each address comes
	// with its record (putLeaf).
	dir := newDirectory(len(objects))
	for i, o := range objects {
		if i > 0 && objects[i-1].ID == o.ID {
			return fmt.Errorf("%w: id %d named twice", ErrDuplicateID, o.ID)
		}
		dir.ids[i] = o.ID
	}
	t.dir = dir
	t.undo = append(t.undo, dirUndo{load: true})

	// Rectangles laid over slab rows: an entry's boundary, a node's.
	rows, union := make([]geom.Rect, t.innerBoxes()), make([]geom.Rect, t.innerBoxes())
	stride := 2 * t.dim * t.innerBoxes()
	for level := 0; ; level++ {
		groups := t.tileLevel(lv, level == 0)
		next := &slab{
			bnd:   make([]float64, len(groups)*stride),
			size:  make([]int, len(groups)),
			child: make([]pagefile.PageID, len(groups)),
		}
		// Every node's bytes first — at the leaves with the records, in
		// tile order — then the nodes' pages, so a level's pages follow
		// its data pages and one another.
		pages := make([][]byte, len(groups))
		for g, ids := range groups {
			buf := make([]byte, pagefile.PageSize)
			t.putHeader(buf, level, len(ids))
			if level == 0 {
				if err := t.putLeaf(buf, lv, objects, ids); err != nil {
					return err
				}
			} else {
				off := nodeHeader
				for _, i := range ids {
					layBoxes(rows, lv.row(i, stride), t.dim)
					t.encodeInnerEntry(buf[off:off+t.innerEntrySize], lv.child[i], rows)
					off += t.innerEntrySize
				}
			}
			t.unionRows(next.row(g, stride), lv, ids, union, rows)
			pages[g], next.size[g] = buf, t.innerEntrySize
		}
		for g, buf := range pages {
			id, err := t.allocPage()
			if err != nil {
				return fmt.Errorf("core: allocating node: %w", err)
			}
			t.nodeWrites.Add(1)
			t.dirty[id], next.child[g] = buf, id
		}
		if len(groups) == 1 {
			// Free the initial empty root page created by New.
			root := next.child[0]
			if t.rootPage != root {
				n, err := t.readNode(t.rootPage, t.rootLevel)
				if err != nil {
					return err
				}
				if len(n.entries) == 0 {
					if err := t.freePage(n.page); err != nil {
						return fmt.Errorf("core: freeing the empty root %d: %w", n.page, err)
					}
				}
			}
			t.rootPage = root
			t.rootLevel = level
			layBoxes(rows, next.bnd, t.dim)
			t.rootMBR = t.boxAt(rows, 0)
			return nil
		}
		lv = next
	}
}

// slab is one level of the tree BulkLoad builds, as flat arrays indexed by
// entry: each entry's boundary boxes in bnd (Tree.boundary's, for an
// intermediate entry unionBoundary's: innerBoxes boxes of 2·dim
// coordinates, Lo then Hi) and its size on a page. A leaf level also holds
// its entries as encodeLeafEntry writes them, their addresses zero (entry
// i is ent[at[i]:at[i+1]]), and their shape references; an intermediate
// level its children.
type slab struct {
	bnd   []float64
	size  []int
	ent   []byte
	at    []int
	ref   []uint16
	child []pagefile.PageID
}

// row is entry i's row of bnd.
func (s *slab) row(i, stride int) []float64 { return s.bnd[i*stride : (i+1)*stride : (i+1)*stride] }

// loadChunk is how many objects a worker of stage 1 takes at a time.
const loadChunk = 1024

// loadLeaves is BulkLoad's first stage: the leaf level's slab. It touches
// no storage, and returns the first invalid object's error in input order.
func (t *Tree) loadLeaves(objects []Object) (*slab, error) {
	n, d := len(objects), t.dim
	mbrs := make([]float64, n*2*d)
	bad := atomic.Int64{}
	bad.Store(int64(n))
	inChunks(n, func(lo, hi int) {
		for i := lo; i < hi && int64(i) < bad.Load(); i++ {
			if t.checkObject(objects[i], rectAt(mbrs, i, d)) != nil {
				for b := bad.Load(); int64(i) < b && !bad.CompareAndSwap(b, int64(i)); b = bad.Load() {
				}
				return
			}
		}
	})
	if i := bad.Load(); i < int64(n) {
		return nil, t.checkObject(objects[i], rectAt(mbrs, int(i), d))
	}

	// Shape references in input order: a shape's prototype is its first
	// object. A ShapeID seen before needs no key. The reference decides
	// the entry's form, and so its size and place in the slab.
	lv := &slab{ref: make([]uint16, n), size: make([]int, n), at: make([]int, n+1)}
	known := make(map[updf.ShapeID]uint16)
	for i, o := range objects {
		ref, seen := uint16(0), false
		id, ok := updf.ShapeIDOf(o.PDF)
		if ok {
			ref, seen = known[id]
		}
		if !seen {
			ref = t.shapeRef(o.PDF.ShapeKey(), o.PDF)
			if ok {
				known[id] = ref
			}
		}
		lv.ref[i], lv.size[i] = ref, t.leafEntrySize
		if t.kind == UTree && ref != 0 {
			lv.size[i] = t.compactEntrySize
			if t.shapes[ref-1].fit.Recentrer() != nil {
				lv.size[i] = t.centreEntrySize
			}
		}
		lv.at[i+1] = lv.at[i] + lv.size[i]
	}

	nb := t.innerBoxes()
	lv.ent, lv.bnd = make([]byte, lv.at[n]), make([]float64, n*2*d*nb)
	inChunks(n, func(lo, hi int) {
		var sc boundScratch
		for i := lo; i < hi; i++ {
			e := t.leafEntry(objects[i], lv.ref[i], rectAt(mbrs, i, d))
			if t.encodeLeafEntry(&e, lv.ent[lv.at[i]:lv.at[i+1]]) != lv.size[i] {
				panic(fmt.Sprintf("core: object %d's leaf entry is not of the form its shape reference %d gives", e.id, e.shape))
			}
			row := lv.row(i, 2*d*nb)
			for j, b := range t.boundary(&e, true, &sc) {
				copy(row[2*d*j:], b.Lo)
				copy(row[2*d*j+d:], b.Hi)
			}
		}
	})
	return lv, nil
}

// rectAt is the i-th rectangle of a slab of 2d-coordinate rows.
func rectAt(coords []float64, i, d int) geom.Rect {
	c := coords[2*d*i : 2*d*(i+1) : 2*d*(i+1)]
	return geom.Rect{Lo: c[:d:d], Hi: c[d:]}
}

// tileLevel is BulkLoad's second stage: the level's entries cut into
// nodes, each as indices into the slab, in tile order.
func (t *Tree) tileLevel(lv *slab, leaf bool) [][]int {
	total := 0
	for _, sz := range lv.size {
		total += sz
	}
	if total <= pageBytes {
		// What is left fits one node: the root.
		return [][]int{identity(len(lv.size))}
	}
	// A node's free room is one entry of the level's largest form.
	minFill, room := t.minInner, t.innerEntrySize
	if leaf {
		minFill, room = t.minLeaf, t.leafEntrySize
	}
	return strTile(t.centres(lv), lv.size, t.dim, minFill, room)
}

// centres flattens the centre of every entry's e.MBR(p_median) box, as
// boxInto evaluates it over the entry's boundary row, into one slice.
func (t *Tree) centres(lv *slab) []float64 {
	d, nb, med := t.dim, t.innerBoxes(), t.cat.MedianIndex()
	out := make([]float64, len(lv.size)*d)
	rows, box := make([]geom.Rect, nb), t.ws.pair.take(1, d)[0]
	for i := range lv.size {
		layBoxes(rows, lv.row(i, 2*d*nb), d)
		t.boxInto(box, rows, med)
		for k := range d {
			out[i*d+k] = (box.Lo[k] + box.Hi[k]) / 2 // box.Center()
		}
	}
	return out
}

// putLeaf fills leaf page buf, behind its header, with the entries ids of
// leaf level lv: it appends each object's record (BulkLoad's stage 3) — a
// keyed one's centre copied from its centre entry — enters its address in
// the directory's row of the same index and copies its entry with the
// address. It counts the
// page's unshaped entries (Tree.unshaped: a U-tree entry without a shape).
func (t *Tree) putLeaf(buf []byte, lv *slab, objects []Object, ids []int) error {
	off := nodeHeader
	for _, i := range ids {
		e := lv.ent[lv.at[i]:lv.at[i+1]]
		word := binary.LittleEndian.Uint16(e[14:])
		var addr DataAddr
		var err error
		if word&centreEntry != 0 {
			addr, err = t.appendKeyed(objects[i].ID, lv.ref[i], e[16:])
		} else {
			addr, err = t.appendRecord(objects[i], lv.ref[i])
		}
		if err != nil {
			return err
		}
		t.dir.pages[i], t.dir.slots[i] = addr.Page, addr.Slot
		copy(buf[off:], e)
		putAddr(buf, off+8, addr, word)
		off += len(e)
		if t.kind == UTree && lv.ref[i] == 0 {
			t.unshaped++
		}
	}
	return nil
}

// unionRows writes the boundary of a node holding the entries ids of lv
// into dst, as unionBoundary does: the union of their boundaries, a
// U-tree's rounded outward to float32. out and src are innerBoxes
// rectangles to lay over dst and over each entry's row.
func (t *Tree) unionRows(dst []float64, lv *slab, ids []int, out, src []geom.Rect) {
	copy(dst, lv.row(ids[0], len(dst)))
	layBoxes(out, dst, t.dim)
	for _, i := range ids[1:] {
		layBoxes(src, lv.row(i, len(dst)), t.dim)
		unionBoundaries(out, src)
	}
	if t.kind == UTree {
		for _, r := range out {
			roundOut(r)
		}
	}
}

// inChunks calls fn over [0, n) in chunks of loadChunk on parallelFor's
// workers, so a worker's scratch serves a chunk.
func inChunks(n int, fn func(lo, hi int)) {
	parallelFor((n+loadChunk-1)/loadChunk, func(c int) {
		fn(c*loadChunk, min(n, (c+1)*loadChunk))
	})
}

// parallelFor calls fn(i) for every i in [0, n) on up to GOMAXPROCS
// goroutines and returns when all have returned.
func parallelFor(n int, fn func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// identity returns [0, 1, …, n-1].
func identity(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// keyIdx is a sort key and the index of the entry it belongs to: what STR
// sorts, so a comparison of unequal keys reads nothing else.
type keyIdx struct {
	key float64
	id  int
}

// sortKeys is the sort STR runs; a test swaps in another. Any correct sort
// gives the same tiles, since strTile's order is total.
var sortKeys = slices.SortFunc[[]keyIdx, keyIdx]

// strTile partitions the entries whose flattened center coordinates and
// on-page sizes are given into groups that each fit a page and hold at
// least minFill bytes, leaving room bytes free where a run can spare them,
// using recursive sort-tile, and returns each group as indices into the
// input, in tile order. Sorting on dimension d compares the entries'
// coordinate d (the key), then their other coordinates from d + 1 on,
// cyclically, then their indices — a total order, so any correct sort
// gives the same tiles, and entries whose keys tie (centres clamped to a
// border of the domain) lie along the other dimensions. The centres are
// never NaN: an entry's box is finite. At each level every other slab
// is sorted on its keys descending — ascending on negated keys, which
// compare as the keys do in reverse; ties part as in any slab — so the tile
// order snakes: the last tile of a slab and the first of the next lie side
// by side. The slabs of the first dimension are tiled on parallelFor's
// workers, each with its own runCutter; the result does not depend on how
// many there are.
func strTile(centers []float64, size []int, dim, minFill, room int) [][]int {
	n := len(size)
	ps, ids := make([]keyIdx, n), make([]int, n)
	for i := range ps {
		ps[i].id = i
	}
	// cut cuts a run sorted on the final dimension into nodes, on keys
	// negated in a descending slab, so that they ascend as cut needs.
	cut := func(c *runCutter, ps []keyIdx, ids []int, big int) [][]int {
		c.keys, c.w = c.keys[:0], append(c.w[:0], 0)
		for k := range ps {
			c.keys = append(c.keys, ps[k].key)
			c.w = append(c.w, c.w[k]+size[ps[k].id])
		}
		return c.cut(ids, big, minFill, room)
	}
	var tile func(c *runCutter, ps []keyIdx, ids []int, d int, desc bool) [][]int
	tile = func(c *runCutter, ps []keyIdx, ids []int, d int, desc bool) [][]int {
		sign, total, big := 1.0, 0, 0
		if desc {
			sign = -1
		}
		for k := range ps {
			ps[k].key = sign * centers[ps[k].id*dim+d]
			total, big = total+size[ps[k].id], max(big, size[ps[k].id])
		}
		sortKeys(ps, func(a, b keyIdx) int {
			switch {
			case a.key < b.key:
				return -1
			case a.key > b.key:
				return 1
			}
			for k := d + 1; k < d+dim; k++ {
				if c := cmp.Compare(centers[a.id*dim+k%dim], centers[b.id*dim+k%dim]); c != 0 {
					return c
				}
			}
			return cmp.Compare(a.id, b.id)
		})
		for k := range ps {
			ids[k] = ps[k].id
		}
		pages := (total + pageBytes/big*big - 1) / (pageBytes / big * big)
		if pages <= 1 || d == dim-1 {
			return cut(c, ps, ids, big)
		}
		// Slabs: ceil(pages^(1/(dim-d))) vertical cuts on dimension d.
		slabs := max(1, int(math.Ceil(math.Pow(float64(pages), 1/float64(dim-d)))))
		per := (len(ps) + slabs - 1) / slabs
		parts := make([][][]int, (len(ps)+per-1)/per)
		slab := func(s int, c *runCutter) {
			lo, hi := s*per, min((s+1)*per, len(ps))
			parts[s] = tile(c, ps[lo:hi], ids[lo:hi], d+1, s%2 == 1)
		}
		if d == 0 {
			parallelFor(len(parts), func(s int) { slab(s, new(runCutter)) })
		} else {
			for s := range parts {
				slab(s, c)
			}
		}
		return slices.Concat(parts...)
	}
	return tile(new(runCutter), ps, ids, 0, false)
}

// runCutter cuts STR's sorted runs into nodes. keys holds the run's sort
// keys and w its byte prefix sums (w[i]: the first i entries' bytes), set
// by the caller; best, back, row and from are cutInto's DP table. All are
// reused from one run to the next.
type runCutter struct {
	keys []float64
	w    []int
	best []float64 // best summed gap of a state
	back []int     // where its last group starts
	row  []int     // where row j starts in best and back
	from []int     // the entries row j's first state has used
}

// cut slices ids, sorted so that c.keys[i] is ids[i]'s ascending sort key,
// into k consecutive groups, k = ⌈bytes / (a page of the run's largest
// entries, big)⌉: the node count of a full packing, so no page is added.
// Every group fits a page and holds at least minFill bytes (≤ 2/5 of a
// page, which an even cut exceeds when k > 1), and at most a page less
// room (at least big: an entry of the level's largest form) wherever k
// such groups hold the run, so each node takes its first insert without a
// split or forced reinsert; where they do not, as much of room as they can
// spare, in steps of big. For entries of one size the groups'
// entry counts lie in [⌊n/k⌋ − 2, ⌈n/k⌉ + 2]; for a run of mixed forms that
// band, its lower end in the smallest entries' bytes and its upper in the
// largest's, bounds their bytes. Inside it the k − 1 cuts go where the summed
// key gaps across them (keys[i] − keys[i−1] for a cut before i) is
// largest, so nodes part where the data does, and where sums tie, nearest
// the even cut. Should no cut into k groups exist, which only a run of
// mixed forms can make so, it tries k + 1.
func (c *runCutter) cut(ids []int, big, minFill, room int) [][]int {
	n, total, full := len(ids), c.w[len(ids)], pageBytes/big*big
	small := total
	for i := 0; i < n; i++ {
		small = min(small, c.w[i+1]-c.w[i])
	}
	for k := (total + full - 1) / full; k <= n; k++ {
		if k <= 1 {
			return [][]int{ids}
		}
		for r := room; ; r -= big {
			if upper := full - max(r, 0); k*upper >= total {
				lo, hi := max(minFill, (n/k-2)*small), min(upper, ((n+k-1)/k+2)*big)
				if out := c.cutInto(ids, k, lo, hi); out != nil {
					return out
				}
			}
			if r <= 0 {
				break
			}
		}
	}
	panic("core: an STR run has no cut into nodes")
}

// cutInto is cut's DP for k groups of lo to hi bytes each, nil where there
// is no such cut. Row j holds the states after j groups: entries used i
// whose bytes w[i] the first j groups reach and the other k − j complete.
// For entries of one size each row is an interval of the even cut's, so the
// DP over (groups cut, entries used) has at most k·(2·capacity + 1) states.
func (c *runCutter) cutInto(ids []int, k, lo, hi int) [][]int {
	n, total := len(ids), c.w[len(ids)]
	c.best, c.back = append(c.best[:0], 0), append(c.back[:0], 0)
	c.row, c.from = append(c.row[:0], 0), append(c.from[:0], 0)
	for j := 1; j <= k; j++ {
		from := sort.SearchInts(c.w, max(j*lo, total-(k-j)*hi))
		to := sort.SearchInts(c.w, min(j*hi, total-(k-j)*lo)+1) - 1
		if from > to {
			return nil
		}
		c.row, c.from = append(c.row, len(c.best)), append(c.from, from)
		prev, pa, pb, even := c.row[j-1], c.from[j-1], c.from[j-1]+c.row[j]-c.row[j-1]-1, (j-1)*n/k
		for i := from; i <= to; i++ {
			v, bp := math.Inf(-1), -1
			for p := max(pa, sort.SearchInts(c.w, c.w[i]-hi)); p <= pb && c.w[i]-c.w[p] >= lo; p++ {
				if w := c.best[prev+p-pa]; w > v || w == v && abs(p-even) < abs(bp-even) {
					v, bp = w, p
				}
			}
			if j < k {
				v += c.keys[i] - c.keys[i-1]
			}
			c.best, c.back = append(c.best, v), append(c.back, bp)
		}
	}
	// Row k's one state: k groups, n entries.
	if math.IsInf(c.best[c.row[k]], -1) {
		return nil
	}
	out := make([][]int, k)
	for i, j := n, k; j > 0; j-- {
		p := c.back[c.row[j]+i-c.from[j]]
		out[j-1] = ids[p:i]
		i = p
	}
	return out
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
