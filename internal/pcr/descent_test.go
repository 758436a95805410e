package pcr

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/updf"
)

// The descent's quantile test (Reach, Reaches, Catalog.QuantileLevels)
// prunes an intermediate entry where MBR⊤.hi + D⁺(a) < rq.lo or
// MBR⊤.lo + D⁻(b) > rq.hi on some dimension. checkQuantileReach holds one
// object's entry, alone under its parent, to that test's derivation in
// exact arithmetic:
//
//   - the parent's float32 MBR⊤ holds the shape's cfb_out faces at p_m moved
//     by the object's translation — the δ the faces are pushed out by
//     covers the translation's rounding;
//   - where the float test prunes, the exact bound MBR⊤.hi + Q_s(a) − o⁺_s
//     + QuantileTol, from the stored box, the offsets and the fitted lines,
//     lies below rq.lo (and its mirror above rq.hi): the float test's
//     margins cover its own rounding;
//   - and the object's marginal mass on rq's side of such a face is below
//     pq, so no query with that face holds it with probability pq.

// rat is x as an exact rational.
func rat(x float64) *big.Rat { return new(big.Rat).SetFloat64(x) }

func ratAdd(a, b *big.Rat) *big.Rat { return new(big.Rat).Add(a, b) }
func ratSub(a, b *big.Rat) *big.Rat { return new(big.Rat).Sub(a, b) }

// exactAt is l.at(p) without rounding.
func (l line) exactAt(p float64) *big.Rat {
	return ratSub(rat(l.alpha), new(big.Rat).Mul(rat(l.beta), rat(p)))
}

// descentLevels are the thresholds the quantile test is most exposed at:
// every level (Catalog.Level) and its neighbours 1 ulp either side, within
// (0, 1].
func descentLevels(cat Catalog) []float64 {
	var out []float64
	for k := range 2 * cat.Size() {
		l := cat.Level(k)
		for _, pq := range []float64{math.Nextafter(l, 0), l, math.Nextafter(l, 2)} {
			if pq > 0 && pq <= 1 {
				out = append(out, pq)
			}
		}
	}
	return out
}

// firstFloat returns the float64 nearest x in direction dir (+1 up, −1
// down) at which prune, monotone that way, first holds: x's side of the
// float test's threshold, bracketed by doubling steps and then bisected to
// adjacent floats.
func firstFloat(x, dir float64, prune func(float64) bool) float64 {
	step := max(math.Abs(x), 1) * 0x1p-60
	out, in := x, x // prune(in); !prune(out)
	for prune(out) {
		out -= dir * step
		step *= 2
	}
	for in = out; !prune(in); step *= 2 {
		in = out + dir*step
	}
	for {
		mid := out + (in-out)/2
		if mid == out || mid == in {
			return in
		}
		if prune(mid) {
			in = mid
		} else {
			out = mid
		}
	}
}

// checkQuantileReach checks the quantile test for object p of shape s, the
// fit of proto, at threshold pq (see above).
func checkQuantileReach(t *testing.T, s *Shape, proto, p updf.PDF, pq float64) {
	t.Helper()
	cat := s.cat
	up, down := s.Reach()
	a, b := cat.QuantileLevels(pq)
	var f Faces
	mbr, pmBox, pm, d := p.MBR(), proto.MBR(), cat.Max(), proto.Dim()
	s.Translate(&f, mbr)
	top := f.Rect(pm)
	for i := range d {
		// The parent's MBR⊤ over this one entry (unionBoundary, roundOut).
		lo, hi := float64(Round32(top.Lo[i], false)), float64(Round32(top.Hi[i], true))
		l0, l1 := s.lines[4*i], s.lines[4*i+1]
		shift := ratSub(rat(p.Center()[i]), rat(proto.Center()[i]))
		if rat(hi).Cmp(ratAdd(l1.exactAt(pm), shift)) < 0 || rat(lo).Cmp(ratAdd(l0.exactAt(pm), shift)) > 0 {
			t.Fatalf("%s at %v, dimension %d: MBR⊤ [%v, %v] does not hold the shape's faces at p_m moved by the translation",
				proto.ShapeKey(), p.Center(), i, lo, hi)
		}
		tol, c := rat(updf.QuantileTol(pmBox.Side(i))), rat(proto.Center()[i])
		upper := ratAdd(rat(hi), ratAdd(ratSub(ratAdd(c, rat(s.off[i][a])), l1.exactAt(pm)), tol))
		lower := ratSub(ratAdd(rat(lo), ratSub(ratAdd(c, rat(s.off[i][b])), l0.exactAt(pm))), tol)

		// The nearest query faces the float test prunes at.
		u, dn := up[a*d+i], down[b*d+i]
		rqLo := firstFloat(hi+u, +1, func(x float64) bool { return !Reaches(lo, hi, u, dn, x, math.Inf(1)) })
		rqHi := firstFloat(lo+dn, -1, func(x float64) bool { return !Reaches(lo, hi, u, dn, math.Inf(-1), x) })
		if upper.Cmp(rat(rqLo)) >= 0 {
			t.Fatalf("%s at %v, pq %v, dimension %d: the float test prunes rq.lo = %v, the exact bound MBR⊤.hi + D⁺ is %v",
				proto.ShapeKey(), p.Center(), pq, i, rqLo, upper.FloatString(20))
		}
		if lower.Cmp(rat(rqHi)) <= 0 {
			t.Fatalf("%s at %v, pq %v, dimension %d: the float test prunes rq.hi = %v, the exact bound MBR⊤.lo + D⁻ is %v",
				proto.ShapeKey(), p.Center(), pq, i, rqHi, lower.FloatString(20))
		}

		// The object itself cannot reach pq in a query with either face
		// there: its mass on rq's side of the face is below pq.
		if beyond := 1 - p.MarginalCDF(i, rqLo); beyond >= pq {
			t.Fatalf("%s at %v, pq %v, dimension %d: the float test prunes rq.lo = %v, the object has %v beyond it",
				proto.ShapeKey(), p.Center(), pq, i, rqLo, beyond)
		}
		if below := p.MarginalCDF(i, rqHi); below >= pq {
			t.Fatalf("%s at %v, pq %v, dimension %d: the float test prunes rq.hi = %v, the object has %v below it",
				proto.ShapeKey(), p.Center(), pq, i, rqHi, below)
		}
	}
}

// TestQuantileReachSound: for the six keyed families in 2-D and 3-D, shapes
// with extents from 10⁻³ to a few hundred, prototypes and objects at
// coordinates from units to 10⁷, and thresholds on every level and 1 ulp
// either side of it (and drawn at random), checkQuantileReach holds.
func TestQuantileReachSound(t *testing.T) {
	objects := 50
	if testing.Short() {
		objects = 10
	}
	cat := UniformCatalog(15)
	levels := descentLevels(cat)
	for _, family := range keyedFamilies {
		for _, d := range []int{2, 3} {
			if family == famPolygon && d == 3 {
				continue
			}
			t.Run(fmt.Sprintf("%s-%dd", marginalFamilyNames[family], d), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(2000*family + d)))
				u := rng.Float64
				for shape := range 10 {
					scale, maxMag := math.Pow(10, -3+0.55*float64(shape)), 1e7
					if family == famPolygon {
						maxMag = 1e4
					}
					place := keyedShape(family, d, scale, u)
					proto := place(shapeCentre(d, math.Pow(maxMag, u()), u))
					s := NewShape(proto, cat)
					for range objects {
						p := place(shapeCentre(d, math.Pow(maxMag, u()), u))
						if p.ShapeKey() != proto.ShapeKey() {
							continue
						}
						for range 6 {
							checkQuantileReach(t, s, proto, p, levels[rng.Intn(len(levels))])
						}
						checkQuantileReach(t, s, proto, p, 1-u())
					}
				}
			})
		}
	}
}

// FuzzQuantileDescent drives checkQuantileReach from the fuzzer's bytes:
// keyed family and dimensionality from the first two, then the shape's
// scale (10⁻³ … 10^2.5) and parameters, the prototype's and the object's
// centres (up to 10⁷, a polygon's 10⁴), and the threshold: a level or a
// neighbour 1 ulp off it, or any value in (0, 1].
func FuzzQuantileDescent(f *testing.F) {
	// Seeds: every keyed family in 2-D and 3-D, each from the middle of
	// every range and from four byte strings of a fixed generator.
	rng := rand.New(rand.NewSource(57))
	for _, family := range keyedFamilies {
		for _, d := range []byte{2, 3} {
			f.Add([]byte{byte(family), d})
			for range 4 {
				seed := make([]byte, 40)
				rng.Read(seed)
				f.Add(append([]byte{byte(family), d}, seed...))
			}
		}
	}
	cat := UniformCatalog(15)
	levels := descentLevels(cat)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		family, d := keyedFamilies[int(data[0])%len(keyedFamilies)], 2+int(data[1])%2
		maxMag := 1e7
		if family == famPolygon {
			d, maxMag = 2, 1e4
		}
		src := unitBytes{data[2:]}
		u := src.next
		place := keyedShape(family, d, math.Pow(10, -3+5.5*u()), u)
		proto := place(shapeCentre(d, math.Pow(maxMag, u()), u))
		p := place(shapeCentre(d, math.Pow(maxMag, u()), u))
		if p.ShapeKey() != proto.ShapeKey() {
			return // not a translate to the bit: the tree would give it no reference
		}
		pq := levels[min(int(u()*float64(len(levels))), len(levels)-1)]
		if u() < 0.25 {
			pq = 1 - u() // in (0, 1]
		}
		checkQuantileReach(t, NewShape(proto, cat), proto, p, pq)
	})
}
