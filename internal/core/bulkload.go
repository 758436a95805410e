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
//     split sorts by;
//  3. walk the leaves in tile order and only then append each entry's detail
//     record, so the records of one leaf share one or two adjacent data pages
//     and data pages follow leaf order — refinement groups candidates "by
//     their associated disk addresses" (paper §5), which saves I/O only when
//     neighbouring objects share a page — then write the nodes level by
//     level.
//
// Compared with one-by-one insertion it produces a near-full tree (fewer
// pages, fewer query I/Os) at a fraction of the build cost; the tree stays
// fully dynamic afterwards (later Inserts append at the data file's tail).
// The result is a function of the object order alone. It can only be called
// on an empty tree.
func (t *Tree) BulkLoad(objects []Object) error {
	if t.size != 0 {
		return fmt.Errorf("core: BulkLoad requires an empty tree (have %d objects)", t.size)
	}
	if len(objects) == 0 {
		return nil
	}
	entries, err := t.buildLeafEntries(objects)
	if err != nil {
		return err
	}

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
					if current[i].addr, err = t.appendRecord(objects[i]); err != nil {
						return err
					}
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
				if n, err := t.readNode(t.rootPage); err == nil && len(n.entries) == 0 {
					_ = t.freeNode(n)
				}
			}
			t.rootPage = root
			t.rootLevel = level
			t.rootMBR = t.boxAt(next[0].boxes, 0)
			t.size = len(objects)
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

// strTile partitions the entries whose flattened center coordinates are
// given into groups of at most capacity (and at least minFill) using
// recursive sort-tile, and returns each group as indices into the input, in
// tile order.
func strTile(centers []float64, dim, capacity, minFill int) [][]int {
	var groups [][]int
	var recurse func(ids []int, d int)
	recurse = func(ids []int, d int) {
		pages := int(math.Ceil(float64(len(ids)) / float64(capacity)))
		sort.Slice(ids, func(a, b int) bool {
			return centers[ids[a]*dim+d] < centers[ids[b]*dim+d]
		})
		if pages <= 1 || d == dim-1 {
			// Final dimension: chunk the sorted run.
			groups = append(groups, chunk(ids, capacity, minFill)...)
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

// chunk slices the ordered ids into groups of `capacity`, balancing the
// tail so no group is below minFill.
func chunk(ids []int, capacity, minFill int) [][]int {
	var out [][]int
	n := len(ids)
	lo := 0
	for lo < n {
		hi := lo + capacity
		if hi > n {
			hi = n
		}
		// If the remainder after this chunk would be a too-small tail,
		// shrink this chunk to feed the tail (minFill ≤ 40% of capacity
		// keeps the shrunk chunk legal).
		if rest := n - hi; rest > 0 && rest < minFill {
			hi -= minFill - rest
		}
		out = append(out, ids[lo:hi])
		lo = hi
	}
	return out
}
