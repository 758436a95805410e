package core

import (
	"sort"

	"repro/internal/geom"
)

// splitGroups partitions the given rectangles into two groups following the
// R*-tree split of Beckmann et al. (SIGMOD 1990): choose the axis minimizing
// the summed margins of all candidate distributions, then the distribution
// minimizing overlap (ties: minimum total area). size[i] is entry i's bytes
// and minFill the fewest bytes a group may hold (R* uses 40% of capacity):
// the candidate distributions are the cuts of a sorted order that leave
// both groups that much, which for entries of one size are R*'s by count.
// It returns the index sets of the two groups; every index appears in
// exactly one group. chooseSplit feeds it the entries' boxes at one catalog
// value (Section 5.3).
func splitGroups(rects []geom.Rect, size []int, minFill int) (left, right []int) {
	n := len(rects)
	total := 0
	for _, s := range size {
		total += s
	}
	// cuts returns the valid k of ord: ord[:k] and ord[k:] both hold
	// minFill bytes or more.
	cuts := func(ord []int) []int {
		var ks []int
		for k, pre := 1, size[ord[0]]; k < n; k, pre = k+1, pre+size[ord[k]] {
			if pre >= minFill && total-pre >= minFill {
				ks = append(ks, k)
			}
		}
		return ks
	}
	d := rects[0].Dim()

	bestAxis := -1
	bestMargin := 0.0
	type axisOrder struct{ byLo, byHi []int }
	orders := make([]axisOrder, d)

	for axis := 0; axis < d; axis++ {
		byLo := sortedIdx(n, func(a, b int) bool {
			if rects[a].Lo[axis] != rects[b].Lo[axis] {
				return rects[a].Lo[axis] < rects[b].Lo[axis]
			}
			return rects[a].Hi[axis] < rects[b].Hi[axis]
		})
		byHi := sortedIdx(n, func(a, b int) bool {
			if rects[a].Hi[axis] != rects[b].Hi[axis] {
				return rects[a].Hi[axis] < rects[b].Hi[axis]
			}
			return rects[a].Lo[axis] < rects[b].Lo[axis]
		})
		orders[axis] = axisOrder{byLo, byHi}

		margin := 0.0
		for _, ord := range [][]int{byLo, byHi} {
			for _, k := range cuts(ord) {
				margin += mbrOf(rects, ord[:k]).Margin() + mbrOf(rects, ord[k:]).Margin()
			}
		}
		if bestAxis < 0 || margin < bestMargin {
			bestAxis, bestMargin = axis, margin
		}
	}

	// Distribution selection on the chosen axis.
	var bestL, bestR []int
	bestOverlap, bestArea := 0.0, 0.0
	first := true
	for _, ord := range [][]int{orders[bestAxis].byLo, orders[bestAxis].byHi} {
		for _, k := range cuts(ord) {
			l, r := ord[:k], ord[k:]
			bl, br := mbrOf(rects, l), mbrOf(rects, r)
			ov := bl.Overlap(br)
			ar := bl.Area() + br.Area()
			if first || ov < bestOverlap || (ov == bestOverlap && ar < bestArea) {
				first = false
				bestOverlap, bestArea = ov, ar
				bestL = append(bestL[:0], l...)
				bestR = append(bestR[:0], r...)
			}
		}
	}
	if first {
		panic("core: too few entries to split at the requested fill")
	}
	return bestL, bestR
}

func sortedIdx(n int, less func(a, b int) bool) []int {
	idx := identity(n)
	sort.Slice(idx, func(i, j int) bool { return less(idx[i], idx[j]) })
	return idx
}

func mbrOf(rects []geom.Rect, idx []int) geom.Rect {
	u := rects[idx[0]].Clone()
	for _, i := range idx[1:] {
		u.UnionInPlace(rects[i])
	}
	return u
}
