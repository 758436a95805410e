package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func rect2(lox, loy, hix, hiy float64) Rect {
	return NewRect(Point{lox, loy}, Point{hix, hiy})
}

func TestPointDist(t *testing.T) {
	p := Point{0, 0}
	q := Point{3, 4}
	if got := p.Dist(q); got != 5 {
		t.Fatalf("Dist = %g, want 5", got)
	}
	if got := p.Dist(p); got != 0 {
		t.Fatalf("Dist to self = %g, want 0", got)
	}
}

func TestPointCloneIndependent(t *testing.T) {
	p := Point{1, 2}
	q := p.Clone()
	q[0] = 99
	if p[0] != 1 {
		t.Fatal("Clone aliases the original")
	}
}

func TestNewRectPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRect with inverted extent did not panic")
		}
	}()
	NewRect(Point{1, 0}, Point{0, 1})
}

func TestNewRectDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRect with mismatched dims did not panic")
		}
	}()
	NewRect(Point{0}, Point{1, 1})
}

func TestAreaMargin(t *testing.T) {
	r := rect2(0, 0, 2, 3)
	if got := r.Area(); got != 6 {
		t.Fatalf("Area = %g, want 6", got)
	}
	if got := r.Margin(); got != 5 {
		t.Fatalf("Margin = %g, want 5", got)
	}
	deg := rect2(1, 1, 1, 5)
	if got := deg.Area(); got != 0 {
		t.Fatalf("degenerate Area = %g, want 0", got)
	}
	if got := deg.Margin(); got != 4 {
		t.Fatalf("degenerate Margin = %g, want 4", got)
	}
}

func TestContainsIntersects(t *testing.T) {
	outer := rect2(0, 0, 10, 10)
	inner := rect2(2, 2, 5, 5)
	disjoint := rect2(11, 11, 12, 12)
	touching := rect2(10, 0, 12, 5)

	if !outer.Contains(inner) {
		t.Error("outer should contain inner")
	}
	if inner.Contains(outer) {
		t.Error("inner should not contain outer")
	}
	if !outer.Contains(outer) {
		t.Error("rect should contain itself")
	}
	if !outer.Intersects(inner) || !inner.Intersects(outer) {
		t.Error("nested rects should intersect")
	}
	if outer.Intersects(disjoint) {
		t.Error("disjoint rects should not intersect")
	}
	if !outer.Intersects(touching) {
		t.Error("boundary-touching rects should intersect (closed semantics)")
	}
	if !outer.ContainsPoint(Point{0, 0}) || !outer.ContainsPoint(Point{10, 10}) {
		t.Error("corners are contained")
	}
	if outer.ContainsPoint(Point{10.001, 5}) {
		t.Error("outside point is not contained")
	}
}

func TestOverlap(t *testing.T) {
	a := rect2(0, 0, 4, 4)
	b := rect2(2, 2, 6, 6)
	if got := a.Overlap(b); got != 4 {
		t.Fatalf("Overlap = %g, want 4", got)
	}
	if got := a.Overlap(rect2(4, 0, 5, 4)); got != 0 {
		t.Fatalf("touching Overlap = %g, want 0", got)
	}
	if got := a.Overlap(rect2(10, 10, 11, 11)); got != 0 {
		t.Fatalf("disjoint Overlap = %g, want 0", got)
	}
}

func TestUnionEnlargement(t *testing.T) {
	a := rect2(0, 0, 2, 2)
	b := rect2(3, 3, 4, 4)
	// The enlargement ChooseSubtree weighs: Area(a ∪ b) − Area(a).
	if got := mbr(a, b).Area() - a.Area(); got != 12 {
		t.Fatalf("enlargement = %g, want 12", got)
	}
	if got := mbr(a, rect2(0.5, 0.5, 1, 1)).Area() - a.Area(); got != 0 {
		t.Fatalf("enlargement by a contained rect = %g, want 0", got)
	}
}

func TestUnionInPlace(t *testing.T) {
	a := rect2(0, 0, 2, 2)
	a.UnionInPlace(rect2(-1, 1, 1, 3))
	if !a.Equal(rect2(-1, 0, 2, 3)) {
		t.Fatalf("UnionInPlace = %v", a)
	}
}

func TestMBR(t *testing.T) {
	got := mbr(rect2(0, 0, 1, 1), rect2(5, -2, 6, 0), rect2(2, 2, 3, 9))
	if !got.Equal(rect2(0, -2, 6, 9)) {
		t.Fatalf("MBR = %v", got)
	}
}

func TestMBRPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mbr() did not panic")
		}
	}()
	mbr()
}

func TestCenterDist(t *testing.T) {
	a := rect2(0, 0, 2, 2) // center (1,1)
	b := rect2(3, 1, 5, 7) // center (4,4)
	want := math.Sqrt(18)
	if got := a.CenterDist(b); math.Abs(got-want) > 1e-12 {
		t.Fatalf("CenterDist = %g, want %g", got, want)
	}
}

func TestIsValid(t *testing.T) {
	if !rect2(0, 0, 1, 1).IsValid() {
		t.Error("valid rect reported invalid")
	}
	bad := Rect{Lo: Point{1, 0}, Hi: Point{0, 1}}
	if bad.IsValid() {
		t.Error("inverted rect reported valid")
	}
	nan := Rect{Lo: Point{math.NaN(), 0}, Hi: Point{1, 1}}
	if nan.IsValid() {
		t.Error("NaN rect reported valid")
	}
	if (Rect{}).IsValid() {
		t.Error("zero rect reported valid")
	}
}

// randomRect produces a well-formed rectangle for property tests.
func randomRect(rng *rand.Rand, d int) Rect {
	lo := make(Point, d)
	hi := make(Point, d)
	for i := 0; i < d; i++ {
		a := rng.Float64()*200 - 100
		b := a + rng.Float64()*50
		lo[i], hi[i] = a, b
	}
	return Rect{Lo: lo, Hi: hi}
}

func TestPropertyUnionContainsBoth(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(4)
		a, b := randomRect(rng, d), randomRect(rng, d)
		u := mbr(a, b)
		return u.Contains(a) && u.Contains(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// intersection is the closed intersection of a and b, ok false when they
// are disjoint: the reference the predicates below are held to.
func intersection(a, b Rect) (in Rect, ok bool) {
	in = Rect{Lo: make(Point, a.Dim()), Hi: make(Point, a.Dim())}
	for i := range a.Lo {
		in.Lo[i], in.Hi[i] = max(a.Lo[i], b.Lo[i]), min(a.Hi[i], b.Hi[i])
		if in.Lo[i] > in.Hi[i] {
			return Rect{}, false
		}
	}
	return in, true
}

func TestPropertyIntersectionSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		d := 1 + int(seed&3)
		a, b := randomRect(rng, d), randomRect(rng, d)
		_, ok := intersection(a, b)
		return a.Intersects(b) == ok && b.Intersects(a) == ok && a.Overlap(b) == b.Overlap(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyOverlapMatchesIntersectArea(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		d := 1 + int(seed&3)
		a, b := randomRect(rng, d), randomRect(rng, d)
		ov := a.Overlap(b)
		in, ok := intersection(a, b)
		if !ok {
			return ov == 0
		}
		return math.Abs(ov-in.Area()) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyEnlargementNonNegative: the enlargement ChooseSubtree weighs,
// Area(a ∪ b) − Area(a), is never negative.
func TestPropertyEnlargementNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		d := 1 + int(seed&3)
		a, b := randomRect(rng, d), randomRect(rng, d)
		return mbr(a, b).Area()-a.Area() >= -1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyContainmentTransitive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		d := 1 + rng.Intn(3)
		a := randomRect(rng, d)
		b := a.Clone()
		// Shrink b inside a, c inside b.
		c := a.Clone()
		for j := 0; j < d; j++ {
			w := a.Side(j)
			b.Lo[j] += w * 0.1
			b.Hi[j] -= w * 0.1
			c.Lo[j] += w * 0.2
			c.Hi[j] -= w * 0.2
			if b.Lo[j] > b.Hi[j] || c.Lo[j] > c.Hi[j] {
				// Degenerate shrink; clamp to midpoint.
				m := (a.Lo[j] + a.Hi[j]) / 2
				b.Lo[j], b.Hi[j] = m, m
				c.Lo[j], c.Hi[j] = m, m
			}
		}
		if !a.Contains(b) || !b.Contains(c) || !a.Contains(c) {
			t.Fatalf("containment chain broken: a=%v b=%v c=%v", a, b, c)
		}
	}
}

func TestString(t *testing.T) {
	r := rect2(0, 1, 2, 3)
	if got := r.String(); got != "[(0, 1) ; (2, 3)]" {
		t.Fatalf("String = %q", got)
	}
}

// mbr returns the minimum bounding rectangle of the given rectangles.
// It panics when called with no rectangles.
func mbr(rects ...Rect) Rect {
	if len(rects) == 0 {
		panic("geom: MBR of empty set")
	}
	u := rects[0].Clone()
	for _, r := range rects[1:] {
		u.UnionInPlace(r)
	}
	return u
}
