package core

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func randRect(rng *rand.Rand, dim int, span, maxSide float64) geom.Rect {
	lo := make(geom.Point, dim)
	hi := make(geom.Point, dim)
	for i := 0; i < dim; i++ {
		a := rng.Float64() * span
		lo[i] = a
		hi[i] = a + rng.Float64()*maxSide
	}
	return geom.Rect{Lo: lo, Hi: hi}
}

func TestSplitGroupsProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		n := 8 + rng.Intn(20)
		minFill := 2 + rng.Intn(n/4)
		rects := make([]geom.Rect, n)
		for i := range rects {
			rects[i] = randRect(rng, 2, 100, 20)
		}
		l, r := splitGroups(rects, minFill)
		if len(l) < minFill || len(r) < minFill {
			t.Fatalf("fill violated: %d/%d with minFill %d", len(l), len(r), minFill)
		}
		seen := make([]bool, n)
		for _, i := range append(append([]int{}, l...), r...) {
			if seen[i] {
				t.Fatalf("index %d in both groups", i)
			}
			seen[i] = true
		}
		for i, s := range seen {
			if !s {
				t.Fatalf("index %d lost by split", i)
			}
		}
	}
}

func TestSplitGroupsSeparatesClusters(t *testing.T) {
	// Two well-separated clusters must be split apart.
	var rects []geom.Rect
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10; i++ {
		rects = append(rects, randRect(rng, 2, 10, 2))
	}
	for i := 0; i < 10; i++ {
		r := randRect(rng, 2, 10, 2)
		for j := range r.Lo {
			r.Lo[j] += 1000
			r.Hi[j] += 1000
		}
		rects = append(rects, r)
	}
	l, r := splitGroups(rects, 4)
	check := func(group []int) bool {
		low := 0
		for _, i := range group {
			if i < 10 {
				low++
			}
		}
		return low == 0 || low == len(group)
	}
	if !check(l) || !check(r) {
		t.Fatalf("clusters mixed: %v | %v", l, r)
	}
}
