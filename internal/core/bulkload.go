package core

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// BulkLoad builds the index bottom-up from a dataset in three stages:
//
//  1. build every leaf entry (PCRs → CFBs) on GOMAXPROCS workers — pure
//     computation, so an invalid object fails the load before a single page
//     is allocated;
//  2. tile the leaf level with Sort-Tile-Recursive (STR) packing over the
//     entries' e.MBR(p_median) centers — the same geometry the incremental
//     split sorts by — every other slab sorted the other way, so the tiles
//     run back and forth (boustrophedon) and consecutive tiles are
//     neighbours; and cut each sorted run into as many nodes as a full
//     packing would, each with room for one more entry of any form where
//     the run has it to spare (runCutter.cut);
//  3. walk the leaves in tile order and only then append each entry's detail
//     record, so the records of one leaf share one or two adjacent data pages
//     and data pages follow leaf order — a page that straddles two leaves
//     then holds spatial neighbours — refinement groups candidates "by
//     their associated disk addresses" (paper §5), which saves I/O only when
//     neighbouring objects share a page — then write the nodes level by
//     level.
//
// Compared with one-by-one insertion it produces a tree with the page count
// of a full packing (fewer pages, fewer query I/Os) at a fraction of the
// build cost, whose first inserts neither split nor reinsert; the tree
// stays fully dynamic afterwards (later Inserts append to the last data
// page).
// The result is a function of the object order alone. It can only be called
// on an empty tree, and an ID named twice is ErrDuplicateID before a page is
// allocated. The directory takes every object at its record's address; a
// Rollback empties it again.
func (t *Tree) BulkLoad(objects []Object) error {
	if n := t.Len(); n != 0 {
		return fmt.Errorf("core: BulkLoad requires an empty tree (have %d objects)", n)
	}
	if len(objects) == 0 {
		return nil
	}
	entries, err := t.buildLeafEntries(objects)
	if err != nil {
		return err
	}
	for _, o := range objects {
		if _, dup := t.dir[o.ID]; dup {
			t.dir = make(map[int64]DataAddr)
			return fmt.Errorf("%w: id %d named twice", ErrDuplicateID, o.ID)
		}
		t.dir[o.ID] = DataAddr{} // the address comes with the record
	}
	t.undo = append(t.undo, dirUndo{load: true})

	med := t.cat.MedianIndex()
	centersOf := func(es []entry, leaf bool) []float64 {
		// flattened center coordinates per entry (med box center)
		out := make([]float64, len(es)*t.dim)
		box := t.ws.pair.take(1, t.dim)[0]
		for i := range es {
			t.boxInto(box, t.boundary(&es[i], leaf, &t.ws.bound), med)
			for k := range t.dim {
				out[i*t.dim+k] = (box.Lo[k] + box.Hi[k]) / 2 // box.Center()
			}
		}
		return out
	}

	current := entries
	for level := 0; ; level++ {
		leaf := level == 0
		minFill := t.minInner
		if leaf {
			minFill = t.minLeaf
		}
		var groups [][]int
		if t.entryBytes(current, leaf) > pageBytes {
			size := make([]int, len(current))
			for i := range current {
				size[i] = t.entrySize(&current[i], leaf)
			}
			// A node's free room is one entry of the level's largest form.
			room := t.innerEntrySize
			if leaf {
				room = t.leafEntrySize
			}
			groups = strTile(centersOf(current, leaf), size, t.dim, minFill, room)
		} else {
			// What is left fits one node: the root.
			groups = [][]int{identity(len(current))}
		}
		if leaf {
			// Stage 3: records in tile order, before any node is written.
			for _, g := range groups {
				for _, i := range g {
					if current[i].addr, err = t.appendRecord(objects[i], current[i].shape); err != nil {
						return err
					}
					t.dir[objects[i].ID] = current[i].addr
				}
			}
		}
		next := make([]entry, 0, len(groups))
		for _, g := range groups {
			n, err := t.allocNode(level)
			if err != nil {
				return err
			}
			n.entries = make([]entry, len(g))
			for k, i := range g {
				n.entries[k] = current[i]
			}
			if err := t.writeNode(n); err != nil {
				return err
			}
			next = append(next, entry{child: n.page, boxes: t.nodeBoundary(n)})
		}
		if len(next) == 1 {
			// Free the initial empty root page created by New.
			root := next[0].child
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
			t.rootMBR = t.boxAt(next[0].boxes, 0)
			return nil
		}
		current = next
	}
}

// buildLeafEntries is BulkLoad's first stage: entries[i] is objects[i]'s
// leaf entry without its data address. A serial pass rejects a
// mis-dimensioned object and gives every object its shape reference, in
// input order; then GOMAXPROCS workers build the entries. It touches no
// storage.
func (t *Tree) buildLeafEntries(objects []Object) ([]entry, error) {
	entries := make([]entry, len(objects))
	for i := range objects {
		if err := t.checkObject(objects[i]); err != nil {
			return nil, err
		}
		entries[i].shape = t.shapeRef(objects[i].PDF.ShapeKey(), objects[i].PDF)
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > len(objects) {
		workers = len(objects)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(objects) {
					return
				}
				entries[i] = t.leafEntry(objects[i], entries[i].shape)
			}
		}()
	}
	wg.Wait()
	return entries, nil
}

// identity returns [0, 1, …, n-1].
func identity(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// strTile partitions the entries whose flattened center coordinates and
// on-page sizes are given into groups that each fit a page and hold at
// least minFill bytes, leaving room bytes free where a run can spare them,
// using recursive sort-tile, and returns each group as indices into the
// input, in tile order. At each level every other slab is sorted
// descending, so the tile order snakes: the last tile of a slab and the
// first of the next lie side by side.
func strTile(centers []float64, size []int, dim, minFill, room int) [][]int {
	var groups [][]int
	var c runCutter
	var recurse func(ids []int, d int, desc bool)
	recurse = func(ids []int, d int, desc bool) {
		total, big := 0, 0
		for _, id := range ids {
			total, big = total+size[id], max(big, size[id])
		}
		pages := (total + pageBytes/big*big - 1) / (pageBytes / big * big)
		if desc {
			sort.Slice(ids, func(a, b int) bool { return centers[ids[a]*dim+d] > centers[ids[b]*dim+d] })
		} else {
			sort.Slice(ids, func(a, b int) bool { return centers[ids[a]*dim+d] < centers[ids[b]*dim+d] })
		}
		if pages <= 1 || d == dim-1 {
			// Final dimension: cut the sorted run into nodes, on keys
			// negated in a descending slab, so that they ascend as cut
			// needs.
			sign := 1.0
			if desc {
				sign = -1
			}
			c.keys, c.w = c.keys[:0], append(c.w[:0], 0)
			for _, id := range ids {
				c.keys = append(c.keys, sign*centers[id*dim+d])
				c.w = append(c.w, c.w[len(c.w)-1]+size[id])
			}
			groups = append(groups, c.cut(ids, big, minFill, room)...)
			return
		}
		// Slabs: ceil(pages^(1/(dim-d))) vertical cuts on dimension d.
		slabs := int(math.Ceil(math.Pow(float64(pages), 1/float64(dim-d))))
		if slabs < 1 {
			slabs = 1
		}
		per := (len(ids) + slabs - 1) / slabs
		for s, lo := 0, 0; lo < len(ids); s, lo = s+1, lo+per {
			recurse(ids[lo:min(lo+per, len(ids))], d+1, s%2 == 1)
		}
	}
	recurse(identity(len(centers)/dim), 0, false)
	return groups
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
