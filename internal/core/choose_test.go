package core

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// referenceChooseSubtree is ChooseSubtree (Section 5.3) written directly
// from its definition: every box is interpolated where it is used and
// every candidate's grown boundary is a fresh clone. chooseSubtree computes
// the same sums from boxes materialized once and is held to returning the
// same index.
func (t *Tree) referenceChooseSubtree(n *node, eBoxes []geom.Rect) int {
	m := t.cat.Size()
	best := 0
	if n.level == 1 {
		bestOv, bestEnl, bestArea := inf(), inf(), inf()
		for i := range n.entries {
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

func TestChooseSubtreeMatchesReference(t *testing.T) {
	for _, kind := range []Kind{UTree, UPCR} {
		for _, dim := range []int{2, 3} {
			tree, err := New(Options{Dim: dim, Kind: kind})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(31 + dim)))
			for trial := 0; trial < 600; trial++ {
				// Level 1 takes the overlap branch, level 2 the area one.
				n := &node{level: 1 + trial%2}
				n.entries = make([]entry, 2+rng.Intn(40))
				for i := range n.entries {
					n.entries[i].boxes = randomBoundary(rng, tree)
				}
				eBoxes := randomBoundary(rng, tree)
				want := tree.referenceChooseSubtree(n, eBoxes)
				if got := tree.chooseSubtree(n, eBoxes); got != want {
					t.Fatalf("%v dim %d level %d, %d children: chose %d, reference %d",
						kind, dim, n.level, len(n.entries), got, want)
				}
			}
		}
	}
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
