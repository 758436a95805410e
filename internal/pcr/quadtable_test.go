package pcr

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/geom"
	"repro/internal/updf"
)

// quadTol is how far a quadrant table's bracket may sit outside ExactProb
// of the quadrant: the rounding of the ExactProb calls it was built from
// and of the one it is checked against, and of a probe's corner carried
// into its coordinates.
const quadTol = 1e-13

// quadrantMass is Q(s, u) of p, a 2-D ball: ExactProb of the box beyond
// offsets s and u from its centre.
func quadrantMass(p updf.PDF, s, u float64) float64 {
	c, r := p.Center(), p.MBR().Side(0)
	return p.ExactProb(geom.NewRect(geom.Point{c[0] + s, c[1] + u}, geom.Point{c[0] + 2*r, c[1] + 2*r}))
}

// checkQuadrant holds q's bracket at (s, u) to the quadrant mass of p, a
// translate of q's shape, and to at most twice the widest bracket
// quadKnots' comment reports.
func checkQuadrant(t *testing.T, q quadrants, p updf.PDF, s, u float64) {
	t.Helper()
	lo, hi := q.lower(s, u), q.upper(s, u)
	if exact := quadrantMass(p, s, u); lo-quadTol > exact || exact > hi+quadTol || hi-lo > 0.1 {
		t.Fatalf("%s at (%v, %v): bracket [%.17g, %.17g], quadrant mass %.17g", p.ShapeKey(), s, u, lo, hi, exact)
	}
}

// quadShape is a 2-D ball of radius r centred at ctr: a uniform one for
// k < 0, else a Con-Gau of σ = r / {8, 2, 1, 1/8}[k].
func quadShape(k int, ctr geom.Point, r float64) updf.PDF {
	if k < 0 {
		return updf.NewUniformBall(ctr, r)
	}
	return updf.NewConGauBall(ctr, r, r/[]float64{8, 2, 1, 0.125}[k])
}

// TestQuadrantTableBrackets: for both 2-D ball families, radii from 10⁻³
// to 3·10⁴ and a Con-Gau's σ from r/8 to 8r, the bracket read off a shape's
// table holds the quadrant mass of a translate of it at 10⁴ offset pairs —
// every pair of knots, where it is the table's value either way round and
// 0 where the quadrant misses the ball, pairs of knots each 1 ulp above or
// below, pairs on the circle of radius r and just inside and outside it,
// and uniform ones over [0, 1.1 r]², where a uniform ball's knots evaluated
// without a table hold it too.
func TestQuadrantTableBrackets(t *testing.T) {
	for _, r := range []float64{1e-3, 1, 250, 3e4} {
		for k := -1; k < 4; k++ {
			p := quadShape(k, geom.Point{3.5 * r, -2.25 * r}, r)
			t.Run(p.ShapeKey(), func(t *testing.T) {
				tab := NewShape(quadShape(k, geom.Point{-7 * r, 11 * r}, r), UniformCatalog(15)).quadrant()
				if tab == nil {
					t.Fatal("the shape has no quadrant table")
				}
				q := quadrants{table: tab}
				for i := 0; i <= quadKnots; i++ {
					for j := 0; j <= quadKnots; j++ {
						lo, hi := q.lower(tab.knot(i), tab.knot(j)), q.upper(tab.knot(i), tab.knot(j))
						if lo != hi || lo != tab.at(j, i) || i*i+j*j >= quadKnots*quadKnots && hi != 0 {
							t.Fatalf("knots (%d, %d): bracket [%v, %v], table %v", i, j, lo, hi, tab.at(i, j))
						}
						checkQuadrant(t, q, p, tab.knot(i), tab.knot(j))
					}
				}
				rng := rand.New(rand.NewSource(int64(k)))
				nudge := func() float64 {
					return math.Nextafter(tab.knot(rng.Intn(quadKnots+1)), []float64{0, 2 * r}[rng.Intn(2)])
				}
				for n := 0; n < 1800; n++ {
					checkQuadrant(t, q, p, nudge(), nudge())
				}
				for n := 0; n < 2000; n++ {
					th, f := rng.Float64()*math.Pi/2, []float64{1, 1 - 1e-12, 1 + 1e-12, 1 - 1e-4, 1 + 1e-4}[n%5]
					checkQuadrant(t, q, p, f*r*math.Cos(th), f*r*math.Sin(th))
				}
				// A uniform ball with no table at hand evaluates the same knots.
				ev := quadrantsOf(p, nil)
				for n := 0; n < 2000; n++ {
					s, u := 1.1*r*rng.Float64(), 1.1*r*rng.Float64()
					checkQuadrant(t, q, p, s, u)
					if ev.ok() {
						checkQuadrant(t, ev, p, s, u)
					}
				}
			})
		}
	}
}

// countedExact is a pdf that counts the ExactProb calls reaching it: made a
// shape's prototype, it counts what building its quadrant table integrates.
type countedExact struct {
	updf.PDF
	calls *atomic.Int64
	hold  *hold
}

func (c countedExact) ExactProb(rq geom.Rect) float64 {
	c.calls.Add(1)
	c.hold.first()
	return c.PDF.ExactProb(rq)
}

// TestQuadrantTableBuiltOnce: eight queries meeting the same new 2-D ball
// shape at once, each on a translate of it, build its quadrant table once,
// from the prototype, and share it — one ExactProb per pair of knots whose
// quadrant meets the ball — nobody integrates a quadrant again afterwards,
// and every query of a translate reads the same bracket, which holds its
// exact probability. Each reads the table as a serial build makes it,
// though the build is held until every query has asked (hold).
func TestQuadrantTableBuiltOnce(t *testing.T) {
	var calls atomic.Int64
	origin := updf.NewConGauBall(geom.Point{0, 0}, 10, 5)
	sh := NewShape(origin, UniformCatalog(15))
	var tables [8]*quadTable
	h := newHold(len(tables))
	sh.proto = countedExact{origin, &calls, h}
	var serial quadTable
	serial.build(origin)
	rq := geom.NewRect(geom.Point{-4, -3}, geom.Point{5, 20})

	var brackets [8][2]float64
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range tables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			shift := float64(100 * g)
			p := updf.NewConGauBall(geom.Point{shift, 0}, 10, 5)
			moved := geom.NewRect(geom.Point{rq.Lo[0] + shift, rq.Lo[1]}, geom.Point{rq.Hi[0] + shift, rq.Hi[1]})
			<-start
			h.asked.Done()
			tables[g] = sh.quadrant()
			if tables[g].grid != serial.grid || !slices.Equal(tables[g].q, serial.q) {
				t.Errorf("goroutine %d read a table unlike the serial build's", g)
			}
			h.read.Done()
			lb, ub := ProbBoundsMarginal(p, moved, sh)
			brackets[g] = [2]float64{lb, ub}
			if exact := p.ExactProb(moved); lb-oracleTol > exact || exact > ub+oracleTol {
				t.Errorf("goroutine %d: bounds [%v, %v] miss exact %v", g, lb, ub, exact)
			}
		}()
	}
	close(start)
	wg.Wait()
	once := int64(0)
	for i := 0; i <= quadKnots; i++ {
		for j := i; j <= quadKnots; j++ {
			if i*i+j*j < quadKnots*quadKnots {
				once++
			}
		}
	}
	if got := calls.Load(); got != once {
		t.Fatalf("%d ExactProb calls for one shape, want %d: the table was built more than once", got, once)
	}
	for g := range tables {
		if tables[g] != tables[0] || brackets[g] != brackets[0] {
			t.Fatalf("goroutine %d got table %p and bracket %v, goroutine 0 %p and %v", g, tables[g], brackets[g], tables[0], brackets[0])
		}
	}
	if q := sh.quadrant(); q != tables[0] || calls.Load() != once {
		t.Fatalf("asking for a built table integrated %d quadrants", calls.Load()-once)
	}
}

// TestPairTermsExactIn2D: in 2-D the faces of one dimension bound disjoint
// events, so no three faces meet and 1 − S1 + S2 is the probability itself.
// With S1 from the marginals and each pair's mass from quadrant masses by
// the reflection pair() reads its table through — Q(o_e, o_f) with the
// centre inside both faces, T_f − Q(|o_e|, o_f) beyond e, T_e + T_f − 1 +
// Q(|o_e|, |o_f|) beyond both — that sum is ExactProb within 10⁻¹² for both
// ball families, in each sign case, for a query narrower than the ball on
// both axes and for 10³ random rectangles.
func TestPairTermsExactIn2D(t *testing.T) {
	for k := -1; k < 4; k++ {
		const r = 7.5
		p := quadShape(k, geom.Point{120, -40}, r)
		origin := quadShape(k, geom.Point{0, 0}, r)
		c := p.Center()
		box := func(x0, y0, x1, y1 float64) geom.Rect {
			return geom.NewRect(geom.Point{c[0] + x0*r, c[1] + y0*r}, geom.Point{c[0] + x1*r, c[1] + y1*r})
		}
		rects := map[string]geom.Rect{
			"inside both faces":    box(-0.3, -0.4, 2, 2),
			"beyond one face":      box(0.3, -0.4, 2, 2),
			"beyond both faces":    box(0.3, 0.2, 2, 2),
			"narrower on both":     box(-0.25, -0.2, 0.25, 0.3),
			"narrower, off centre": box(0.1, -0.5, 0.4, -0.1),
		}
		rng := rand.New(rand.NewSource(int64(k)))
		for n := 0; n < 1000; n++ {
			x, y := 1.2*(2*rng.Float64()-1), 1.2*(2*rng.Float64()-1)
			rects[fmt.Sprint("random ", n)] = box(x, y, x+1.5*rng.Float64(), y+1.5*rng.Float64())
		}
		for name, rq := range rects {
			var off [4]float64 // faces as pair() numbers them: offsets from the centre
			var tails [4]float64
			for i := 0; i < 2; i++ {
				off[2*i], off[2*i+1] = c[i]-rq.Lo[i], rq.Hi[i]-c[i]
				tails[2*i], tails[2*i+1] = p.MarginalCDF(i, rq.Lo[i]), 1-p.MarginalCDF(i, rq.Hi[i])
			}
			s1, s2 := tails[0]+tails[1]+tails[2]+tails[3], 0.0
			for e := 0; e < 2; e++ {
				for f := 2; f < 4; f++ {
					oe, of := off[e], off[f]
					switch {
					case oe >= 0 && of >= 0:
						s2 += quadrantMass(origin, oe, of)
					case oe < 0 && of >= 0:
						s2 += tails[f] - quadrantMass(origin, -oe, of)
					case oe >= 0 && of < 0:
						s2 += tails[e] - quadrantMass(origin, oe, -of)
					default:
						s2 += tails[e] + tails[f] - 1 + quadrantMass(origin, -oe, -of)
					}
				}
			}
			if got, exact := 1-s1+s2, p.ExactProb(rq); math.Abs(got-exact) > 1e-12 {
				t.Errorf("%s %s %v: 1 − S1 + S2 = %.17g, ExactProb %.17g", p.ShapeKey(), name, rq, got, exact)
			}
		}
	}
}

// fuzzQuadShapes outlives the executions of one fuzz worker, so each of the
// shapes FuzzQuadrantTable draws is tabulated once.
var fuzzQuadShapes shapeSet

// FuzzQuadrantTable: the fuzzer's bytes pick a 2-D ball family, its radius
// (16 values from 10⁻³ to 10³) and a Con-Gau's σ, where a translate of it
// lies (within 10 r) and the offsets (s, u) — drawn over [0, 1.2 r]², or
// snapped to a knot, 1 ulp either side of one, or to the circle of radius
// r; the bracket the shape's table gives must hold ExactProb of the
// quadrant beyond them.
func FuzzQuadrantTable(f *testing.F) {
	for family := 0; family < 5; family++ {
		for mode := 0; mode < 5; mode++ {
			f.Add([]byte{byte(family), 7, byte(mode)})
			f.Add([]byte{byte(family), 15, byte(mode), 0xff, 0xff, 0, 0, 0x40, 0, 0xc0, 0, 0x20, 0})
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		r := math.Pow(10, -3+0.4*float64(data[1]%16))
		src := unitBytes{data[3:]}
		u := src.next
		ctr := geom.Point{10 * r * (2*u() - 1), 10 * r * (2*u() - 1)}
		p := quadShape(int(data[0])%5-1, ctr, r)
		q := quadrants{table: fuzzQuadShapes.of(p).quadrant()}
		g := q.grid()
		s, v := 1.2*r*u(), 1.2*r*u()
		switch mode := data[2] % 5; mode {
		case 1, 2, 3: // on knots, or 1 ulp above or below them
			s, v = g.knot(min(int(s*g.inv), quadKnots)), g.knot(min(int(v*g.inv), quadKnots))
			if mode > 1 {
				toward := []float64{2 * r, 0}[mode-2]
				s, v = math.Nextafter(s, toward), math.Nextafter(v, toward)
			}
		case 4: // on the circle
			th := math.Atan2(v, s)
			s, v = r*math.Cos(th), r*math.Sin(th)
		}
		checkQuadrant(t, q, p, s, v)
	})
}

// TestUnkeyedBallDecidedAsKeyed: a 2-D uniform ball's record read with no
// shape — an unkeyed object's — gets its quadrant masses evaluated at the
// knots its shape's table holds, so its bracket is the one read off the
// table to rounding, and a tree decides the ball alike whether its shape
// table holds the ball's shape or not: over 10⁴ rectangles cutting balls
// of ten radii at a corner, or inside them on both axes.
func TestUnkeyedBallDecidedAsKeyed(t *testing.T) {
	var shapes shapeSet
	rng := rand.New(rand.NewSource(9))
	u := rng.Float64
	for shape := 0; shape < 10; shape++ {
		r := math.Pow(10, -3+0.6*float64(shape))
		for n := 0; n < 1000; n++ {
			p := updf.NewUniformBall(shapeCentre(2, math.Pow(1e7, u()), u), r)
			rq := cornerRect(p.Center(), r, u)
			if n%2 == 1 {
				rq = marginalRect(rectStraddle, p.MBR(), u)
			}
			lb, ub := ProbBoundsMarginal(p, rq, shapes.of(p))
			lbN, ubN := ProbBoundsMarginal(p, rq, nil)
			if math.Abs(lb-lbN) > 1e-15 || ub != ubN {
				t.Fatalf("%v rq=%v: bracket [%.17g, %.17g] off the table, [%.17g, %.17g] evaluated", p.MBR(), rq, lb, ub, lbN, ubN)
			}
		}
	}
}

// TestQuadrantReadsAtLeafCarrySlack: the leaf reads a face's offset off
// the prototype, to within ShapeSlack's δ of the record's, so a face at a
// knot can read one knot apart at the two; the leaf reads each offset at
// the end of its δ interval that weakens the bound. For both 2-D ball
// families, radii 10⁻³ … 10 at coordinates up to 10⁷, and rectangles whose
// two faces lie within a few ulps of a pair of knots — every sign case —
// the leaf's bracket holds the record's.
func TestQuadrantReadsAtLeafCarrySlack(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	u := rng.Float64
	for k := -1; k < 4; k++ {
		for _, r := range []float64{1e-3, 0.1, 10} {
			place := func(c geom.Point) updf.PDF { return quadShape(k, c, r) }
			sh := NewShape(place(shapeCentre(2, math.Pow(1e7, u()), u)), UniformCatalog(15))
			g := sh.quadrant().grid
			for n := 0; n < 300; n++ {
				p := place(shapeCentre(2, math.Pow(1e7, u()), u))
				c, mbr := p.Center(), p.MBR()
				lo, hi := geom.Point{c[0] - 2*r, c[1] - 2*r}, geom.Point{c[0] + 2*r, c[1] + 2*r}
				for i := range lo {
					// A low face a knot from the centre on rq's side of it or
					// beyond it, nudged a few ulps.
					x := c[i] - g.knot(rng.Intn(quadKnots))
					if u() < 0.5 {
						x = c[i] + g.knot(rng.Intn(quadKnots))
					}
					toward := math.Inf(2*rng.Intn(2) - 1)
					for s := rng.Intn(3); s > 0; s-- {
						x = math.Nextafter(x, toward)
					}
					lo[i] = x
				}
				rq := geom.NewRect(lo, hi)
				checkShapeDecision(t, sh, p, mbr, rq, p.ExactProb(rq))
			}
		}
	}
}
