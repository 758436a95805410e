package updf

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/geom"
)

// keyFloat draws a float64 from everywhere %g has a case: ±0, subnormals,
// 1e±300, ±Inf and NaN, integers, and values of any exponent.
func keyFloat(rng *rand.Rand) float64 {
	sign := float64(1 - 2*rng.Intn(2))
	switch rng.Intn(10) {
	case 0:
		return sign * 0
	case 1:
		return sign * math.Float64frombits(1+uint64(rng.Int63n(1<<52-1))) // subnormal
	case 2:
		return sign * (1 + rng.Float64()) * 1e300
	case 3:
		return sign * (1 + rng.Float64()) * 1e-300
	case 4:
		return []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, math.SmallestNonzeroFloat64}[rng.Intn(5)]
	case 5:
		return sign * float64(rng.Intn(100000))
	default:
		return sign * math.Float64frombits(rng.Uint64()&^(1<<63))
	}
}

func keyPoint(rng *rand.Rand, d int) geom.Point {
	p := make(geom.Point, d)
	for i := range p {
		p[i] = keyFloat(rng)
	}
	return p
}

// TestShapeKeyMatchesSprintf holds every built-in family's ShapeKey to the
// fmt form the keys were first defined by, byte for byte, on 10⁴ parameter
// sets per family. Keys are persisted with the shape table and name cached
// quantiles and tables, so a changed key is a changed shape.
func TestShapeKeyMatchesSprintf(t *testing.T) {
	const n = 10000
	rng := rand.New(rand.NewSource(61))
	check := func(p PDF, want string) {
		t.Helper()
		if got := p.ShapeKey(); got != want {
			t.Fatalf("%T: ShapeKey %q, fmt gives %q", p, got, want)
		}
	}
	for k := 0; k < n; k++ {
		d := 1 + rng.Intn(3)
		ball := &UniformBall{Ctr: keyPoint(rng, d), R: keyFloat(rng)}
		check(ball, fmt.Sprintf("uball:d=%d:r=%g", d, ball.R))

		gau := &ConGauBall{Ctr: keyPoint(rng, d), R: keyFloat(rng), Sigma: keyFloat(rng)}
		check(gau, fmt.Sprintf("congau:d=%d:r=%g:s=%g", d, gau.R, gau.Sigma))

		rect := geom.Rect{Lo: keyPoint(rng, d), Hi: keyPoint(rng, d)}
		want := fmt.Sprintf("urect:d=%d", d)
		for i := range rect.Lo {
			want += fmt.Sprintf(":%g", rect.Hi[i]-rect.Lo[i])
		}
		check(&UniformRect{Rect: rect}, want)

		g := &GaussRect{Rect: rect, Mu: keyPoint(rng, d), Sigma: keyPoint(rng, d)}
		want, c := fmt.Sprintf("grect:d=%d", d), rect.Center()
		for i := range g.Sigma {
			want += fmt.Sprintf(":%g,%g,%g", rect.Side(i), g.Sigma[i], g.Mu[i]-c[i])
		}
		check(g, want)

		e := &ExpoRect{Rect: rect, Rate: keyPoint(rng, d)}
		want = fmt.Sprintf("expo:d=%d", d)
		for i := range e.Rate {
			want += fmt.Sprintf(":%g,%g", rect.Side(i), e.Rate[i])
		}
		check(e, want)
	}
	// A polygon's key reads its centroid, so its vertices must make one: a
	// triangle at a random scale, position and sign.
	for k := 0; k < n; {
		scale := math.Pow(10, float64(rng.Intn(601)-300)) * (1 + rng.Float64())
		var verts []geom.Point
		for v := 0; v < 3+rng.Intn(4); v++ {
			verts = append(verts, geom.Point{scale * rng.NormFloat64(), scale * rng.NormFloat64()})
		}
		if rng.Intn(4) == 0 {
			verts[0] = geom.Point{0, math.Copysign(0, -1)}
		}
		p, ok := polygonOrNil(verts)
		if !ok {
			continue
		}
		var b strings.Builder
		b.WriteString("upoly:")
		c := p.Center()
		for _, v := range p.verts {
			fmt.Fprintf(&b, "%g,%g;", v[0]-c[0], v[1]-c[1])
		}
		check(p, b.String())
		k++
	}
}

// polygonOrNil is NewUniformPolygon, with its panic on a degenerate
// polygon turned into ok = false.
func polygonOrNil(verts []geom.Point) (p *UniformPolygon, ok bool) {
	defer func() {
		if recover() != nil {
			p, ok = nil, false
		}
	}()
	return NewUniformPolygon(verts), true
}

// TestShapeIDOfNamesShapeKey: a ShapeID stands in for its pdf's ShapeKey,
// so equal IDs must mean equal keys, through ±0, NaN and subnormal
// parameters; translates share an ID; a family without one says so, and
// the call allocates nothing.
func TestShapeIDOfNamesShapeKey(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	keys := map[ShapeID]string{}
	pick := func() float64 {
		// A small pool, so that IDs meet often.
		return []float64{0, math.Copysign(0, -1), 1, 250, math.NaN(), math.Float64frombits(1), keyFloat(rng)}[rng.Intn(7)]
	}
	for k := 0; k < 20000; k++ {
		ctr := keyPoint(rng, 1+rng.Intn(3))
		var p PDF = &UniformBall{Ctr: ctr, R: pick()}
		if k%2 == 1 {
			p = &ConGauBall{Ctr: ctr, R: pick(), Sigma: pick()}
		}
		id, ok := ShapeIDOf(p)
		if !ok {
			t.Fatalf("%T in %d-D has no ShapeID", p, p.Dim())
		}
		if key, seen := keys[id]; seen && key != p.ShapeKey() {
			t.Fatalf("one ShapeID for keys %q and %q", key, p.ShapeKey())
		}
		keys[id] = p.ShapeKey()
	}
	if len(keys) < 50 {
		t.Fatalf("%d distinct IDs; the check is thin", len(keys))
	}

	a, _ := ShapeIDOf(NewUniformBall(geom.Point{1, 2}, 250))
	if b, _ := ShapeIDOf(NewUniformBall(geom.Point{7, 9}, 250)); a != b {
		t.Error("translated balls have different shape IDs")
	}
	if c, _ := ShapeIDOf(NewConGauBall(geom.Point{1, 2}, 250, 125)); a == c {
		t.Error("a uniform and a Con-Gau ball of one radius share a shape ID")
	}
	rect := geom.NewRect(geom.Point{0, 0}, geom.Point{4, 2})
	for _, p := range []PDF{
		NewUniformRect(rect),
		NewGaussRect(rect, geom.Point{1, 1}, []float64{1, 1}),
		NewExpoRect(rect, []float64{1, 0}),
		NewHistogramRect(rect, []int{2, 1}, []float64{1, 3}),
		NewUniformPolygon([]geom.Point{{0, 0}, {4, 0}, {0, 4}}),
	} {
		if _, ok := ShapeIDOf(p); ok {
			t.Errorf("%T has a ShapeID", p)
		}
	}
	ball := NewUniformBall(geom.Point{0, 0}, 5)
	if n := testing.AllocsPerRun(100, func() { ShapeIDOf(ball) }); n != 0 {
		t.Errorf("ShapeIDOf allocates %v times a call", n)
	}
}
