package pcr

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/updf"
)

// firstOrderMarginal is ProbBoundsMarginal without the pair terms: the
// union and slab bounds alone, which every non-radial family gets.
func firstOrderMarginal(p updf.PDF, rq geom.Rect, cache *QuantileCache) (lb, ub float64) {
	acc := newBounds()
	for i := range rq.Lo {
		acc.add(cache.marginalTails(p, i, rq.Lo[i], rq.Hi[i]))
	}
	return acc.result()
}

// firstOrderShape is ProbBoundsShape without the pair terms.
func firstOrderShape(proto updf.PDF, pm, mbr, rq geom.Rect, cache *QuantileCache) (lb, ub float64) {
	acc := newBounds()
	for i := range rq.Lo {
		shift, d := pm.Lo[i]-mbr.Lo[i], ShapeSlack(pm, mbr, i)
		a, b := rq.Lo[i]+shift, rq.Hi[i]+shift
		inL, inR := cache.marginalTails(proto, i, a+d, b-d)
		outL, outR := cache.marginalTails(proto, i, a-d, b+d)
		acc.add(tail{outL.lo, inL.hi}, tail{outR.lo, inR.hi})
	}
	return widen(acc.result())
}

// cornerRect draws a rectangle around a ball of centre ctr and radius r
// that cuts it at a corner: on two dimensions (three, in 3-D, a third of
// the time) its corner lies inside the ball, on its sphere, or just or well
// outside it, and rq lies on either side of each of those faces; every
// other dimension covers the ball or is cut once at random.
func cornerRect(ctr geom.Point, r float64, u func() float64) geom.Rect {
	d := len(ctr)
	k, first := 2, int(u()*float64(d))
	if d == 3 && u() < 1.0/3 {
		k = 3
	}
	var dir [3]float64
	norm := 0.0
	for j := 0; j < k; j++ {
		v := 0.05 + u()
		if u() < 0.5 {
			v = -v
		}
		dir[(first+j)%d], norm = v, norm+v*v
	}
	s := []float64{u(), 1, 1 + 1e-12, 1 + 1e-4*(1+u()), 1 + 0.3*u()}[int(5*u())]
	lo, hi := make(geom.Point, d), make(geom.Point, d)
	for i := range lo {
		lo[i], hi[i] = ctr[i]-2*r, ctr[i]+2*r
		x := ctr[i] + s*r*dir[i]/math.Sqrt(norm)
		switch {
		case dir[i] == 0 && u() < 0.3:
			x = ctr[i] + (2*u()-1)*r
			fallthrough
		case dir[i] != 0:
			if u() < 0.5 {
				lo[i] = x
			} else {
				hi[i] = x
			}
		}
	}
	return geom.NewRect(lo, hi)
}

// cornersClear reports whether no point of the ball lies beyond two faces
// of rq at once, by a margin of 10⁻⁴ of r² that no rounding of the pair
// terms' distances reaches: every two faces that clip the ball on distinct
// dimensions leave its centre on rq's side and lie farther than r apart
// from it in the plane of their normals.
func cornersClear(ctr geom.Point, r float64, rq geom.Rect) bool {
	var off []float64
	var dim []int
	for i := range ctr {
		if o := ctr[i] - rq.Lo[i]; o < r {
			off, dim = append(off, o), append(dim, i)
		}
		if o := rq.Hi[i] - ctr[i]; o < r {
			off, dim = append(off, o), append(dim, i)
		}
	}
	for e := range off {
		for f := e + 1; f < len(off); f++ {
			if dim[e] != dim[f] && !(off[e] > 0 && off[f] > 0 && off[e]*off[e]+off[f]*off[f] >= r*r*(1+1e-4)) {
				return false
			}
		}
	}
	return true
}

// checkPairs holds every pair term of the record's bracket to the mass
// beyond both of its faces, an ExactProb of the quadrant they cut off.
func checkPairs(t *testing.T, cache *QuantileCache, p updf.PDF, rq geom.Rect) {
	t.Helper()
	var m marginal
	m.read(p, rq, cache)
	mbr := p.MBR()
	for e := 0; e < 2*m.d; e++ {
		for f := e&^1 + 2; f < 2*m.d; f++ {
			if m.faces[e].t.hi == 0 || m.faces[f].t.hi == 0 {
				continue
			}
			quadrant := geom.NewRect(mbr.Lo.Clone(), mbr.Hi.Clone())
			for _, k := range []int{e, f} {
				if i := k / 2; k%2 == 0 {
					quadrant.Hi[i] = rq.Lo[i]
				} else {
					quadrant.Lo[i] = rq.Hi[i]
				}
			}
			lo, hi := m.pair(m.faces[e], m.faces[f], cache, true)
			if exact := p.ExactProb(quadrant); lo-oracleTol > exact || exact > hi+oracleTol {
				t.Fatalf("%T %v rq=%v: pair of faces %d and %d [%.12f, %.12f] misses the mass beyond both, %.12f", p, mbr, rq, e, f, lo, hi, exact)
			}
		}
	}
}

// TestRadialTermsSound: for both radial families in 2-D and 3-D, 10⁴
// rectangles cutting a ball at a corner (2·10³ for the 3-D Con-Gau, whose
// ExactProb at a corner takes ≈ 8 ms) — ten shapes with radii from 10⁻³ to
// a few hundred, objects at coordinates from units to 10⁷ — hold the
// record's bracket (pair terms included) to ExactProb, to the first-order
// bracket it tightens and, read off a CDF table, to the one the marginal
// itself gives; each of its pair terms to the mass beyond both faces; the
// leaf's bracket to the record's; and, where
// no point of the ball lies beyond two faces, close the record's bracket to
// the width of its tails' brackets: the pair terms are exactly 0 there.
// Then, for the six non-radial families, both bounds are the first-order
// ones bit for bit, at the leaf and on the record.
func TestRadialTermsSound(t *testing.T) {
	rects := 10000
	if testing.Short() {
		rects = 1000
	}
	cache := NewQuantileCache()
	for _, family := range []int{famUniformBall, famConGau} {
		for _, d := range []int{2, 3} {
			// The pair check integrates each pair's quadrant: in 3-D on
			// every tenth rectangle, for the Con-Gau every fiftieth.
			rects, pairEvery := rects, 1
			if d == 3 {
				pairEvery = 10
			}
			if family == famConGau && d == 3 {
				rects, pairEvery = rects/5, 50
			}
			t.Run(fmt.Sprintf("%s-%dd", marginalFamilyNames[family], d), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(10*family + d)))
				u := rng.Float64
				clear, tightened, n := 0, 0, 0
				for shape := 0; shape < 10; shape++ {
					place := keyedShape(family, d, math.Pow(10, -3+0.6*float64(shape)), u)
					proto := place(shapeCentre(d, math.Pow(1e7, u()), u))
					pm := proto.MBR()
					for obj := 0; obj < rects/100; obj++ {
						p := place(shapeCentre(d, math.Pow(1e7, u()), u))
						mbr, ctr, r := p.MBR(), p.Center(), pm.Side(0)/2
						for q := 0; q < 10; q++ {
							rq := cornerRect(ctr, r, u)
							exact := p.ExactProb(rq)
							checkMarginalBounds(t, cache, p, rq, exact)
							checkShapeDecision(t, cache, proto, pm, p, mbr, rq, exact)
							if n++; n%pairEvery == 0 {
								checkPairs(t, cache, p, rq)
							}
							lb, ub := ProbBoundsMarginal(p, rq, cache)
							lb1, ub1 := firstOrderMarginal(p, rq, cache)
							if lb < lb1 || ub > ub1 {
								t.Fatalf("%T %v rq=%v: bracket [%v, %v] is wider than the first-order [%v, %v]", p, mbr, rq, lb, ub, lb1, ub1)
							}
							if lb > lb1 || ub < ub1 {
								tightened++
							}
							// A table's brackets hold the marginal itself, and so
							// the bracket read off them holds the one the
							// marginal gives.
							if lbN, ubN := ProbBoundsMarginal(p, rq, nil); lb > lbN+1e-12 || ub < ubN-1e-12 {
								t.Fatalf("%T %v rq=%v: bracket [%v, %v] from the table, [%v, %v] from the marginal", p, mbr, rq, lb, ub, lbN, ubN)
							}
							if !cornersClear(ctr, r, rq) {
								continue
							}
							clear++
							width := 0.0
							for i := range rq.Lo {
								left, right := cache.marginalTails(p, i, rq.Lo[i], rq.Hi[i])
								width += left.hi - left.lo + right.hi - right.lo
							}
							if ub-lb > width+1e-15 {
								t.Fatalf("%T %v rq=%v: no mass beyond two faces, yet bracket [%.17g, %.17g] is wider than its tails' %g", p, mbr, rq, lb, ub, width)
							}
						}
					}
				}
				// Both kinds of case occur often: the terms tighten, and the
				// clear corners are tested.
				if clear < rects/20 || tightened < rects/5 {
					t.Errorf("%d of %d rectangles with clear corners, %d tightened", clear, rects, tightened)
				}
			})
		}
	}
	t.Run("non-radial", func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		u := rng.Float64
		for _, family := range []int{famUniformRect, famGaussRect, famExpoRect, famHistogram, famPolygon, famMixture} {
			for _, d := range []int{2, 3} {
				for n := 0; n < rects/10; n++ {
					p := marginalPDF(family, d, u)
					rq := marginalRect(n%marginalRectKinds, p.MBR(), u)
					lb, ub := ProbBoundsMarginal(p, rq, cache)
					if lb1, ub1 := firstOrderMarginal(p, rq, cache); lb != lb1 || ub != ub1 {
						t.Fatalf("%T %v rq=%v: record bracket [%v, %v], first-order [%v, %v]", p, p.MBR(), rq, lb, ub, lb1, ub1)
					}
					if p.ShapeKey() == "" {
						continue
					}
					// A rectangle's or polygon's own pdf is a prototype of its shape.
					pm := p.MBR()
					lb, ub = ProbBoundsShape(p, pm, pm, rq, cache)
					if lb1, ub1 := firstOrderShape(p, pm, pm, rq, cache); lb != lb1 || ub != ub1 {
						t.Fatalf("%T %v rq=%v: leaf bracket [%v, %v], first-order [%v, %v]", p, pm, rq, lb, ub, lb1, ub1)
					}
				}
			}
		}
	})
}

// fuzzShapeCache is fuzzCache for FuzzShapeDecision.
var fuzzShapeCache = NewQuantileCache()

// FuzzShapeDecision: the fuzzer's bytes pick a keyed family, its
// dimensionality and the rectangle kind (the named ones and cornerRect),
// then the shape's scale (10⁻³ … 10^2.5), the prototype's and the object's
// centres (up to 10⁷, a polygon's 10⁴), the rectangle and a threshold pq.
// The leaf's bracket must hold the record's, and a decision at the leaf, at
// pq or at checkShapeDecision's thresholds, must be FilterMarginal's and
// agree with ExactProb; each filter's must be its whole bracket's.
func FuzzShapeDecision(f *testing.F) {
	for _, family := range keyedFamilies {
		for kind := 0; kind <= marginalRectKinds; kind++ {
			f.Add([]byte{byte(family), 2, byte(kind)})
			f.Add([]byte{byte(family), 3, byte(kind), 0xff, 0xff, 0, 0, 0xff, 0xff, 0, 1, 0x80, 0, 0xff, 0xff, 0, 0, 0, 0, 0xff, 0xff})
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		family, d, kind := keyedFamilies[int(data[0])%len(keyedFamilies)], 2+int(data[1])%2, int(data[2])%(marginalRectKinds+1)
		maxMag := 1e7
		if family == famPolygon {
			d, maxMag = 2, 1e4
		}
		src := unitBytes{data[3:]}
		u := src.next
		place := keyedShape(family, d, math.Pow(10, -3+5.5*u()), u)
		proto := place(shapeCentre(d, math.Pow(maxMag, u()), u))
		p := place(shapeCentre(d, math.Pow(maxMag, u()), u))
		if p.ShapeKey() != proto.ShapeKey() {
			return // not a translate to the bit: the tree would give it no reference
		}
		pm, mbr := proto.MBR(), p.MBR()
		rq := cornerRect(mbr.Center(), mbr.Side(0)/2, u)
		if kind < marginalRectKinds {
			rq = marginalRect(kind, mbr, u)
		}
		exact := p.ExactProb(rq)
		checkShapeDecision(t, fuzzShapeCache, proto, pm, p, mbr, rq, exact)
		checkLeafDecision(t, fuzzShapeCache, proto, pm, p, mbr, rq, u(), exact)
	})
}
