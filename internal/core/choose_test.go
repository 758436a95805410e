package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
)

// referenceChooseSubtree is ChooseSubtree (Section 5.3) written directly
// from its definition: every box is interpolated where it is used and
// every candidate's grown boundary is a fresh clone. At level 1 it scores
// overlap for every child, or with cut for the chooseCut of least summed
// area enlargement (ties by summed area, then index), R*'s candidate cut.
// chooseSubtree computes the same sums from boxes materialized once, with
// the cut, and is held to returning the same index as the reference with
// it.
func (t *Tree) referenceChooseSubtree(n *node, eBoxes []geom.Rect, cut bool) int {
	m := t.cat.Size()
	best := 0
	if n.level == 1 {
		cands := make([]int, len(n.entries))
		for i := range cands {
			cands[i] = i
		}
		if cut && len(cands) > chooseCut {
			key := func(i int) (float64, float64) {
				return t.summedEnlargement(n.entries[i].boxes, t.grownBoxes(n.entries[i].boxes, eBoxes)), t.summedArea(n.entries[i].boxes)
			}
			sort.SliceStable(cands, func(a, b int) bool {
				ea, aa := key(cands[a])
				eb, ab := key(cands[b])
				return ea < eb || (ea == eb && aa < ab)
			})
			cands = cands[:chooseCut]
			sort.Ints(cands)
		}
		bestOv, bestEnl, bestArea := inf(), inf(), inf()
		for _, i := range cands {
			grown := t.grownBoxes(n.entries[i].boxes, eBoxes)
			var dOv float64
			for j := 0; j < m; j++ {
				gj := t.boxAt(grown, j)
				oj := t.boxAt(n.entries[i].boxes, j)
				for k := range n.entries {
					if k == i {
						continue
					}
					other := t.boxAt(n.entries[k].boxes, j)
					dOv += gj.Overlap(other) - oj.Overlap(other)
				}
			}
			enl := t.summedEnlargement(n.entries[i].boxes, grown)
			area := t.summedArea(n.entries[i].boxes)
			if dOv < bestOv || (dOv == bestOv && enl < bestEnl) ||
				(dOv == bestOv && enl == bestEnl && area < bestArea) {
				bestOv, bestEnl, bestArea, best = dOv, enl, area, i
			}
		}
		return best
	}
	bestEnl, bestArea := inf(), inf()
	for i := range n.entries {
		grown := t.grownBoxes(n.entries[i].boxes, eBoxes)
		enl := t.summedEnlargement(n.entries[i].boxes, grown)
		area := t.summedArea(n.entries[i].boxes)
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			bestEnl, bestArea, best = enl, area, i
		}
	}
	return best
}

// grownBoxes returns the parent boundary boxes after absorbing eBoxes.
// Both sets share the same length (2 for U-tree, m for U-PCR).
func (t *Tree) grownBoxes(parent, eBoxes []geom.Rect) []geom.Rect {
	g := cloneBoxes(parent)
	unionBoundaries(g, eBoxes)
	return g
}

// summedArea is Σ_j AREA(boxAt(j)).
func (t *Tree) summedArea(boxes []geom.Rect) float64 {
	var s float64
	for j := 0; j < t.cat.Size(); j++ {
		s += t.boxAt(boxes, j).Area()
	}
	return s
}

// summedEnlargement is Σ_j [AREA(grown_j) − AREA(old_j)].
func (t *Tree) summedEnlargement(old, grown []geom.Rect) float64 {
	var s float64
	for j := 0; j < t.cat.Size(); j++ {
		s += t.boxAt(grown, j).Area() - t.boxAt(old, j).Area()
	}
	return s
}

// randomBoundary draws a boundary set of the tree's kind around a random
// centre: nested boxes, 2 for the U-tree and m for U-PCR. Sizes are drawn
// from a handful of values so that equal areas and zero enlargements — the
// ties the second and third criterion break — occur.
func randomBoundary(rng *rand.Rand, t *Tree) []geom.Rect {
	k := 2
	if t.kind == UPCR {
		k = t.cat.Size()
	}
	boxes := make([]geom.Rect, k)
	ctr := make(geom.Point, t.dim)
	half := make([]float64, t.dim)
	for i := range ctr {
		ctr[i] = float64(rng.Intn(40)) * 25
		half[i] = float64(1+rng.Intn(4)) * 50
	}
	for b := range boxes {
		lo, hi := make(geom.Point, t.dim), make(geom.Point, t.dim)
		for i := range ctr {
			h := half[i] * (1 - 0.9*float64(b)/float64(k-1)*rng.Float64())
			if b > 0 {
				if prev := boxes[b-1].Hi[i] - ctr[i]; h > prev {
					h = prev
				}
			}
			lo[i], hi[i] = ctr[i]-h, ctr[i]+h
		}
		boxes[b] = geom.Rect{Lo: lo, Hi: hi}
	}
	return boxes
}

// TestChooseSubtreeMatchesReference: on random nodes of 2 to 150 children,
// both kinds, 2-D and 3-D, at level 1 (overlap, and the candidate cut past
// chooseCut children) and level 2 (area), chooseSubtree picks the index the
// reference picks with the same cut. The boundaries tie often (randomBoundary
// draws from a handful of sizes on a coarse grid, so boxes touch and areas
// and enlargements are equal), and a third of the nodes have children moved
// an ulp or two off their neighbours, where the sibling prefilter's
// at-most-touching test has to hold exactly.
func TestChooseSubtreeMatchesReference(t *testing.T) {
	for _, kind := range []Kind{UTree, UPCR} {
		for _, dim := range []int{2, 3} {
			tree, err := New(Options{Dim: dim, Kind: kind})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(31 + dim)))
			cut := 0
			for trial := 0; trial < 240; trial++ {
				// Level 1 takes the overlap branch, level 2 the area one.
				n := &node{level: 1 + trial%2}
				n.entries = make([]entry, 2+rng.Intn(149))
				for i := range n.entries {
					n.entries[i].boxes = randomBoundary(rng, tree)
					if trial%3 == 0 && i > 0 && rng.Intn(2) == 0 {
						n.entries[i].boxes = ulpsOff(rng, n.entries[i-1].boxes)
					}
				}
				eBoxes := randomBoundary(rng, tree)
				if trial%3 == 0 {
					eBoxes = ulpsOff(rng, n.entries[rng.Intn(len(n.entries))].boxes)
				}
				want := tree.referenceChooseSubtree(n, eBoxes, true)
				if got := tree.chooseSubtree(n, eBoxes); got != want {
					t.Fatalf("%v dim %d level %d, %d children: chose %d, reference %d",
						kind, dim, n.level, len(n.entries), got, want)
				}
				if n.level == 1 && len(n.entries) > chooseCut {
					cut++
				}
			}
			if cut < 40 {
				t.Fatalf("%v dim %d: only %d nodes took the cut", kind, dim, cut)
			}
		}
	}
}

// ulpsOff returns a copy of boxes with every face moved by 0 to 2 ulps,
// either way, keeping each box valid.
func ulpsOff(rng *rand.Rand, boxes []geom.Rect) []geom.Rect {
	out := cloneBoxes(boxes)
	step := func(v float64) float64 {
		for range rng.Intn(3) {
			v = math.Nextafter(v, math.Inf(2*rng.Intn(2)-1))
		}
		return v
	}
	for _, r := range out {
		for i := range r.Lo {
			r.Lo[i], r.Hi[i] = step(r.Lo[i]), step(r.Hi[i])
			if r.Lo[i] > r.Hi[i] {
				r.Lo[i], r.Hi[i] = r.Hi[i], r.Lo[i]
			}
		}
	}
	return out
}

func TestChooseSubtreeAllocatesNothingWarm(t *testing.T) {
	tree, err := New(Options{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	n := &node{level: 1, entries: make([]entry, 50)}
	for i := range n.entries {
		n.entries[i].boxes = randomBoundary(rng, tree)
	}
	eBoxes := randomBoundary(rng, tree)
	tree.chooseSubtree(n, eBoxes)
	if a := testing.AllocsPerRun(10, func() { tree.chooseSubtree(n, eBoxes) }); a != 0 {
		t.Fatalf("chooseSubtree on a warm scratch: %v allocations", a)
	}
}

// BenchmarkChooseSubtree times one ChooseSubtree on a full level-1 node of
// random boundaries, 2-D: 102 children, the U-tree's intermediate fan-out,
// and 56, what a node held while its boxes were float64.
func BenchmarkChooseSubtree(b *testing.B) {
	tree, err := New(Options{Dim: 2})
	if err != nil {
		b.Fatal(err)
	}
	for _, ne := range []int{56, 102} {
		b.Run(fmt.Sprintf("children=%d", ne), func(b *testing.B) {
			rng := rand.New(rand.NewSource(9))
			nodes := make([]*node, 16)
			eBoxes := make([][]geom.Rect, len(nodes))
			for k := range nodes {
				nodes[k] = &node{level: 1, entries: make([]entry, ne)}
				for i := range nodes[k].entries {
					nodes[k].entries[i].boxes = randomBoundary(rng, tree)
				}
				eBoxes[k] = randomBoundary(rng, tree)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tree.chooseSubtree(nodes[i%len(nodes)], eBoxes[i%len(nodes)])
			}
		})
	}
}

// TestChooseSubtreeUlpInclusion: a new entry that moves a child's low face
// out by one ulp grows its MBR⊥, but interpolation (interpInto) can put the
// grown box an ulp inside the old one at an interior catalog value. There
// an overlap term is negative, and the child beats one that does not grow
// at all on overlap enlargement below zero — the reference's choice, which
// chooseSubtree must make too, though its early exits assume terms ≥ 0
// elsewhere. (With every candidate taken as nested, it chose child 1.)
func TestChooseSubtreeUlpInclusion(t *testing.T) {
	tree, err := New(Options{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	box := func(x0, y0, x1, y1 float64) geom.Rect {
		return geom.Rect{Lo: geom.Point{x0, y0}, Hi: geom.Point{x1, y1}}
	}
	ao, bo := 22.228941700678774, 56.28285732030732
	n := &node{level: 1, entries: []entry{
		{boxes: []geom.Rect{box(ao, 0, ao+200, 100), box(bo, 10, ao+199, 90)}},
		{boxes: []geom.Rect{box(-27.771058299321226, 0, 46.380450555394034, 100), box(-17.771058299321226, 10, 71.85897953583357, 90)}},
		{boxes: []geom.Rect{box(-1000, -1000, 1000, 1000), box(-900, -900, 900, 900)}},
	}}
	eBoxes := []geom.Rect{box(math.Nextafter(ao, -1), 20, ao+1, 30), box(bo+1, 20, bo+2, 30)}
	if got, want := tree.chooseSubtree(n, eBoxes), tree.referenceChooseSubtree(n, eBoxes, true); got != want || want != 0 {
		t.Fatalf("chose %d, the reference %d (want 0)", got, want)
	}
}
