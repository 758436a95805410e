package core

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/pagefile"
)

// BulkLoad builds the index bottom-up from a dataset in three stages:
//
//  1. build every leaf entry (PCRs → CFBs) on GOMAXPROCS workers — pure
//     computation, so an invalid object fails the load before a single page
//     is allocated;
//  2. tile the leaf level with Sort-Tile-Recursive (STR) packing over the
//     entries' e.MBR(p_median) centers — the same geometry the incremental
//     split sorts by — cutting each sorted run into as many nodes as a full
//     packing would, each with a free slot where the run has one to spare
//     (runCutter.cut);
//  3. walk the leaves in tile order and only then append each entry's detail
//     record, so the records of one leaf share one or two adjacent data pages
//     and data pages follow leaf order — refinement groups candidates "by
//     their associated disk addresses" (paper §5), which saves I/O only when
//     neighbouring objects share a page — then write the nodes level by
//     level.
//
// Compared with one-by-one insertion it produces a tree with the page count
// of a full packing (fewer pages, fewer query I/Os) at a fraction of the
// build cost, whose first inserts neither split nor reinsert; the tree
// stays fully dynamic afterwards (later Inserts append at the data file's
// tail).
// The result is a function of the object order alone. It can only be called
// on an empty tree. It returns the records' addresses, addrs[i] objects[i]'s.
func (t *Tree) BulkLoad(objects []Object) ([]pagefile.DataAddr, error) {
	if t.size != 0 {
		return nil, fmt.Errorf("core: BulkLoad requires an empty tree (have %d objects)", t.size)
	}
	if len(objects) == 0 {
		return nil, nil
	}
	entries, err := t.buildLeafEntries(objects)
	if err != nil {
		return nil, err
	}
	addrs := make([]pagefile.DataAddr, len(objects))

	med := t.cat.MedianIndex()
	centersOf := func(es []entry, leaf bool) []float64 {
		// flattened center coordinates per entry (med box center)
		out := make([]float64, len(es)*t.dim)
		for i := range es {
			c := t.boxAt(t.boundary(&es[i], leaf), med).Center()
			copy(out[i*t.dim:], c)
		}
		return out
	}

	current := entries
	for level := 0; ; level++ {
		leaf := level == 0
		capacity, minFill := t.innerCap, t.minInner
		if leaf {
			capacity, minFill = t.leafCap, t.minLeaf
		}
		var groups [][]int
		if len(current) > capacity {
			groups = strTile(centersOf(current, leaf), t.dim, capacity, minFill)
		} else {
			// What is left fits one node: the root.
			groups = [][]int{identity(len(current))}
		}
		if leaf {
			// Stage 3: records in tile order, before any node is written.
			for _, g := range groups {
				for _, i := range g {
					if current[i].addr, err = t.appendRecord(objects[i], current[i].shape); err != nil {
						return nil, err
					}
					addrs[i] = current[i].addr
				}
			}
		}
		next := make([]entry, 0, len(groups))
		for _, g := range groups {
			n, err := t.allocNode(level)
			if err != nil {
				return nil, err
			}
			n.entries = make([]entry, len(g))
			for k, i := range g {
				n.entries[k] = current[i]
			}
			if err := t.writeNode(n); err != nil {
				return nil, err
			}
			next = append(next, entry{child: n.page, boxes: t.nodeBoundary(n)})
		}
		if len(next) == 1 {
			// Free the initial empty root page created by New.
			root := next[0].child
			if t.rootPage != root {
				n, err := t.readNode(t.rootPage, t.rootLevel)
				if err != nil {
					return nil, err
				}
				if len(n.entries) == 0 {
					if err := t.freeNode(n); err != nil {
						return nil, fmt.Errorf("core: freeing the empty root %d: %w", n.page, err)
					}
				}
			}
			t.rootPage = root
			t.rootLevel = level
			t.rootMBR = t.boxAt(next[0].boxes, 0)
			t.size = len(objects)
			return addrs, nil
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

// strTile partitions the entries whose flattened center coordinates are
// given into groups of at most capacity (and at least minFill) using
// recursive sort-tile, and returns each group as indices into the input, in
// tile order.
func strTile(centers []float64, dim, capacity, minFill int) [][]int {
	var groups [][]int
	var c runCutter
	var recurse func(ids []int, d int)
	recurse = func(ids []int, d int) {
		pages := int(math.Ceil(float64(len(ids)) / float64(capacity)))
		sort.Slice(ids, func(a, b int) bool {
			return centers[ids[a]*dim+d] < centers[ids[b]*dim+d]
		})
		if pages <= 1 || d == dim-1 {
			// Final dimension: cut the sorted run into nodes.
			c.keys = c.keys[:0]
			for _, id := range ids {
				c.keys = append(c.keys, centers[id*dim+d])
			}
			groups = append(groups, c.cut(ids, capacity, minFill)...)
			return
		}
		// Slabs: ceil(pages^(1/(dim-d))) vertical cuts on dimension d.
		slabs := int(math.Ceil(math.Pow(float64(pages), 1/float64(dim-d))))
		if slabs < 1 {
			slabs = 1
		}
		per := (len(ids) + slabs - 1) / slabs
		for lo := 0; lo < len(ids); lo += per {
			hi := lo + per
			if hi > len(ids) {
				hi = len(ids)
			}
			recurse(ids[lo:hi], d+1)
		}
	}
	recurse(identity(len(centers)/dim), 0)
	return groups
}

// runCutter cuts STR's sorted runs into nodes. keys holds the run's sort
// keys, set by the caller; best, step and row are cut's DP table. All are
// reused from one run to the next.
type runCutter struct {
	keys []float64
	best []float64 // best summed gap of a state
	step []uint8   // its last group's size, less the band's lowest
	row  []int     // where row j starts in best and step
}

// cut slices ids, sorted so that c.keys[i] is ids[i]'s ascending sort key,
// into k = ⌈n/capacity⌉ consecutive groups: the node count of a full
// packing, so no page is added. Every size lies in [⌊n/k⌋ − 2, ⌈n/k⌉ + 2],
// is at least minFill (≤ 2·capacity/5, which n/k exceeds when k > 1), and
// is at most capacity − 1 wherever k·(capacity − 1) ≥ n, so each node takes
// its first insert without a split or forced reinsert. Inside that band of
// at most six sizes the k − 1 cuts go where the summed key gaps across them
// (keys[i] − keys[i−1] for a cut before i) is largest, so nodes part where
// the data does, and where sums tie, nearest the even cut. The band keeps
// every cut within capacity entries of the even cut's, so the DP over
// (groups cut, entries used) has at most k·(2·capacity + 1) states.
func (c *runCutter) cut(ids []int, capacity, minFill int) [][]int {
	n := len(ids)
	k := (n + capacity - 1) / capacity
	if k <= 1 {
		return [][]int{ids}
	}
	upper := capacity
	if k*(capacity-1) >= n {
		upper = capacity - 1
	}
	lo := max(minFill, n/k-2)
	hi := min(upper, (n+k-1)/k+2)
	// Row j holds the states after j groups: entries used i ∈ [from(j),
	// to(j)], those the first j groups reach and the other k − j complete.
	// The even cut's sizes lie in the band, so every row has a state and
	// every state a predecessor.
	from := func(j int) int { return max(j*lo, n-(k-j)*hi) }
	to := func(j int) int { return min(j*hi, n-(k-j)*lo) }
	c.best, c.step, c.row = append(c.best[:0], 0), append(c.step[:0], 0), append(c.row[:0], 0)
	for j := 1; j <= k; j++ {
		c.row = append(c.row, len(c.best))
		prev, pa, pb, even := c.row[j-1], from(j-1), to(j-1), (j-1)*n/k
		for i := from(j); i <= to(j); i++ {
			v, bp := math.Inf(-1), -1
			for p := max(pa, i-hi); p <= min(pb, i-lo); p++ {
				if w := c.best[prev+p-pa]; w > v || w == v && abs(p-even) < abs(bp-even) {
					v, bp = w, p
				}
			}
			if j < k {
				v += c.keys[i] - c.keys[i-1]
			}
			c.best = append(c.best, v)
			c.step = append(c.step, uint8(i-bp-lo))
		}
	}
	// Walk back from row k's one state: k groups, n entries.
	out := make([][]int, k)
	for i, j := n, k; j > 0; j-- {
		s := lo + int(c.step[c.row[j]+i-from(j)])
		out[j-1] = ids[i-s : i]
		i -= s
	}
	return out
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
