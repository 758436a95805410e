package core

import (
	"sort"

	"repro/internal/geom"
)

// splitGroups partitions the given rectangles into two groups following the
// R*-tree split of Beckmann et al. (SIGMOD 1990): choose the axis minimizing
// the summed margins of all candidate distributions, then the distribution
// minimizing overlap (ties: minimum total area). minFill is the minimum
// number of entries per group (R* uses 40% of capacity). It returns the
// index sets of the two groups; every index appears in exactly one group.
// chooseSplit feeds it the entries' boxes at one catalog value (Section 5.3).
func splitGroups(rects []geom.Rect, minFill int) (left, right []int) {
	n := len(rects)
	if minFill < 1 {
		minFill = 1
	}
	if n < 2*minFill {
		panic("core: too few entries to split at the requested fill")
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
			for k := minFill; k <= n-minFill; k++ {
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
		for k := minFill; k <= n-minFill; k++ {
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
