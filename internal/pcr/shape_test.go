package pcr

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/updf"
)

// keyedFamilies are the families with a ShapeKey: the ones whose objects a
// tree gives a shape reference.
var keyedFamilies = []int{famUniformBall, famUniformRect, famConGau, famGaussRect, famExpoRect, famPolygon}

// shapeGrid is the lattice the rectangle families' translates are drawn on.
// Their ShapeKeys hold hi − lo and mean − centre as computed, so two
// rectangles share one only where that arithmetic comes out the same: always
// on a lattice coarse enough that nothing below 2²⁴ rounds, almost never for
// extents of 10⁻³ at arbitrary coordinates of 10⁷ — where every object is a
// shape of its own and the tree gives it no reference once the table is full.
const shapeGrid = 1.0 / (1 << 28)

func onShapeGrid(v float64) float64 { return math.Round(v/shapeGrid) * shapeGrid }

// shapeSet keeps one Shape per ShapeKey, as a tree's shape table does: the
// first pdf of a key is its prototype, and every later one of the key reads
// that shape's tables. Safe for concurrent use.
type shapeSet struct {
	mu sync.Mutex
	m  map[string]*Shape
}

// of returns p's shape, nil for a pdf without a ShapeKey.
func (ss *shapeSet) of(p updf.PDF) *Shape {
	key := p.ShapeKey()
	if key == "" {
		return nil
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.m == nil {
		ss.m = make(map[string]*Shape)
	}
	if ss.m[key] == nil {
		ss.m[key] = NewShape(p, UniformCatalog(15))
	}
	return ss.m[key]
}

// keyedShape draws a shape of the family with extents around scale and
// returns what places a translate of it at a centre.
func keyedShape(family, d int, scale float64, u func() float64) func(c geom.Point) updf.PDF {
	half := make([]float64, d)
	for i := range half {
		half[i] = scale * (0.5 + u())
		if family != famUniformBall && family != famConGau {
			half[i] = onShapeGrid(half[i])
		}
	}
	box := func(c geom.Point) geom.Rect {
		lo, hi := make(geom.Point, d), make(geom.Point, d)
		for i := range lo {
			lo[i], hi[i] = onShapeGrid(c[i])-half[i], onShapeGrid(c[i])+half[i]
		}
		return geom.NewRect(lo, hi)
	}
	switch family {
	case famUniformBall:
		return func(c geom.Point) updf.PDF { return updf.NewUniformBall(c, half[0]) }
	case famConGau:
		sigma := half[0] / []float64{0.25, 1, 2, 8}[int(4*u())]
		return func(c geom.Point) updf.PDF { return updf.NewConGauBall(c, half[0], sigma) }
	case famUniformRect:
		return func(c geom.Point) updf.PDF { return updf.NewUniformRect(box(c)) }
	case famGaussRect:
		off, sigma := make([]float64, d), make([]float64, d)
		for i := range off {
			off[i], sigma[i] = onShapeGrid((u()-0.5)*half[i]), (0.2+4*u())*half[i]
		}
		return func(c geom.Point) updf.PDF {
			b := box(c)
			mu := b.Center()
			for i := range mu {
				mu[i] += off[i]
			}
			return updf.NewGaussRect(b, mu, sigma)
		}
	case famExpoRect:
		rate := make([]float64, d)
		for i := range rate {
			rate[i] = 3 * u() / half[i]
		}
		return func(c geom.Point) updf.PDF { return updf.NewExpoRect(box(c), rate) }
	default:
		// A polygon's key holds every vertex's offset from the centroid as
		// computed, so two polygons share one only where that arithmetic is
		// exact: a centrally symmetric hexagon on a lattice of sixes, whose
		// centroid is its centre to the bit.
		a, b, h := 6*float64(2+int(40*u())), 6*float64(1+int(u()*10)), 6*float64(1+int(40*u()))
		b = min(b, a-6)
		return func(c geom.Point) updf.PDF {
			x, y := 6*math.Round(c[0]/6)+0, 6*math.Round(c[1]/6)+0 // + 0: no −0, which the key would spell out
			return updf.NewUniformPolygon([]geom.Point{{x + a, y}, {x + b, y + h}, {x - b, y + h}, {x - a, y}, {x - b, y - h}, {x + b, y - h}})
		}
	}
}

// shapeCentre draws a centre with coordinates of magnitude up to mag.
func shapeCentre(d int, mag float64, u func() float64) geom.Point {
	c := make(geom.Point, d)
	for i := range c {
		c[i] = (2*u() - 1) * mag
	}
	return c
}

// TestShapeDecisionSound: for the six keyed families in 2-D and 3-D, 10⁴
// (object, rectangle) pairs each — ten shapes with extents from 10⁻³ to a few
// hundred, objects with the prototype's ShapeKey at coordinates from units to
// 10⁷, every named rectangle kind — the bracket Shape.FilterMarginal reads
// at the leaf off the prototype holds the one FilterMarginal reads off the
// object's own pdf, so whatever the leaf decides the record would have decided the same
// way, and it never contradicts the exact probability.
func TestShapeDecisionSound(t *testing.T) {
	pairs := 10000
	if testing.Short() {
		pairs = 1000
	}
	var shapes shapeSet
	for _, family := range keyedFamilies {
		for _, d := range []int{2, 3} {
			if family == famPolygon && d == 3 {
				continue
			}
			t.Run(fmt.Sprintf("%s-%dd", marginalFamilyNames[family], d), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(1000*family + d)))
				u := rng.Float64
				done, decided, decidable := 0, 0, 0
				for shape := 0; shape < 10; shape++ {
					// Extents 10⁻³ … 300 across the shapes; the polygon's
					// lattice has its own, and loses cancelling digits to
					// products of coordinates, so it stays within 10⁴.
					scale, maxMag := math.Pow(10, -3+0.6*float64(shape)), 1e7
					if family == famPolygon {
						maxMag = 1e4
					}
					place := keyedShape(family, d, scale, u)
					proto := place(shapeCentre(d, math.Pow(maxMag, u()), u))
					key, sh := proto.ShapeKey(), shapes.of(proto)
					for obj := 0; obj < pairs/100; obj++ {
						p := place(shapeCentre(d, math.Pow(maxMag, u()), u))
						if p.ShapeKey() != key {
							t.Fatalf("shape %d: a translate of %s has key %s", shape, key, p.ShapeKey())
						}
						mbr := p.MBR()
						for q := 0; q < 10; q++ {
							rq := marginalRect((obj*10+q)%marginalRectKinds, mbr, u)
							was, could := checkShapeDecision(t, sh, p, mbr, rq, p.ExactProb(rq))
							done, decided, decidable = done+1, decided+was, decidable+could
						}
					}
				}
				if done != pairs {
					t.Fatalf("%d pairs, want %d", done, pairs)
				}
				// δ and the widening cost next to nothing: the leaf takes
				// nearly every decision the record would allow.
				if decided*100 < decidable*97 {
					t.Errorf("the leaf took %d of the %d decisions the record allows", decided, decidable)
				}
			})
		}
	}
}

// checkShapeDecision holds one (object, rectangle) pair to the contract and
// counts, over boundTestThresholds, the decisions FilterMarginal takes and
// those Shape.FilterMarginal took before it, and holds every leaf decision
// to the exact probability, exact. p is an object of shape s.
func checkShapeDecision(t *testing.T, s *Shape, p updf.PDF, mbr, rq geom.Rect, exact float64) (decided, decidable int) {
	t.Helper()
	lbM, ubM := ProbBoundsMarginal(p, rq, s)
	lbS, ubS := s.ProbBoundsMarginal(mbr, rq)
	if !(lbS <= lbM && ubM <= ubS) || lbS < 0 || ubS > 1 {
		t.Fatalf("%T %v read through %v, rq=%v: leaf bracket [%.17g, %.17g] does not hold the record's [%.17g, %.17g]",
			p, mbr, s.pm, rq, lbS, ubS, lbM, ubM)
	}
	// After the fixed thresholds, the record's own decision boundaries: the
	// last threshold it validates at and the first it prunes at, where a
	// leaf decision would differ first if it could.
	for k, pq := range append(boundTestThresholds[:len(boundTestThresholds):len(boundTestThresholds)], lbM-boundPruneEps, ubM+boundPruneEps) {
		if pq <= 0 || pq > 1 {
			continue
		}
		atLeaf, onRecord := checkLeafDecision(t, s, p, mbr, rq, pq, exact)
		if k < len(boundTestThresholds) && onRecord != Unknown {
			decidable++
			if atLeaf != Unknown {
				decided++
			}
		}
	}
	return decided, decidable
}

// decideMarginal is the decision FilterMarginal takes on a whole bracket.
func decideMarginal(lb, ub, pq float64) Outcome { return (&threshold{pq: pq}).outcome(lb, ub) }

// checkLeafDecision holds Shape.FilterMarginal's decision at pq to
// FilterMarginal's and to the exact probability, and each to the decision
// its whole bracket gives, which neither reads all of; it returns both.
func checkLeafDecision(t *testing.T, s *Shape, p updf.PDF, mbr, rq geom.Rect, pq, exact float64) (atLeaf, onRecord Outcome) {
	t.Helper()
	pm := s.pm
	atLeaf, onRecord = s.FilterMarginal(mbr, rq, pq), FilterMarginal(p, rq, pq, s)
	if lb, ub := s.ProbBoundsMarginal(mbr, rq); atLeaf != decideMarginal(lb, ub, pq) {
		t.Fatalf("%T %v read through %v, rq=%v pq=%v: Shape.FilterMarginal %v, its bracket [%.17g, %.17g] %v", p, mbr, pm, rq, pq, atLeaf, lb, ub, decideMarginal(lb, ub, pq))
	}
	if lb, ub := ProbBoundsMarginal(p, rq, s); onRecord != decideMarginal(lb, ub, pq) {
		t.Fatalf("%T %v rq=%v pq=%v: FilterMarginal %v, its bracket [%.17g, %.17g] %v", p, mbr, rq, pq, onRecord, lb, ub, decideMarginal(lb, ub, pq))
	}
	if atLeaf != Unknown && atLeaf != onRecord {
		t.Fatalf("%T %v read through %v, rq=%v pq=%v: %v at the leaf, %v on the record", p, mbr, pm, rq, pq, atLeaf, onRecord)
	}
	if atLeaf == Validated && exact < pq-oracleTol || atLeaf == PrunedByBound && exact >= pq+oracleTol {
		t.Fatalf("%T %v rq=%v pq=%v: %v at the leaf, exact probability %.12f", p, mbr, rq, pq, atLeaf, exact)
	}
	return atLeaf, onRecord
}

// TestShapeSlackCoversExtents: two objects of one ShapeKey have MBR extents
// within ShapeSlack of each other — what core.CheckInvariants holds every
// leaf entry with a shape reference to — at coordinates up to 10⁷.
func TestShapeSlackCoversExtents(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, family := range []int{famUniformBall, famConGau} {
		for n := 0; n < 2000; n++ {
			place := keyedShape(family, 3, math.Pow(10, -3+6*rng.Float64()), rng.Float64)
			a := place(shapeCentre(3, math.Pow(1e7, rng.Float64()), rng.Float64)).MBR()
			b := place(shapeCentre(3, math.Pow(1e7, rng.Float64()), rng.Float64)).MBR()
			for i := 0; i < 3; i++ {
				if diff, d := math.Abs(a.Side(i)-b.Side(i)), ShapeSlack(a, b, i); diff > d/4 {
					t.Fatalf("%v and %v: extents differ by %g on dimension %d, δ = %g", a, b, diff, i, d)
				}
			}
		}
	}
}

// shapeBenchCase is one leaf entry a benchmark tests on its shape.
type shapeBenchCase struct {
	name       string
	shape      *Shape
	mbr, query geom.Rect
}

// shapeBenchCases is marginalBenchPDFs' keyed families, each read through a
// prototype of its shape that lies elsewhere, and each ball also cut at a
// corner.
func shapeBenchCases() (cases []shapeBenchCase) {
	for _, f := range marginalBenchPDFs() {
		var proto updf.PDF
		switch v := f.pdf.(type) {
		case *updf.UniformBall:
			proto = updf.NewUniformBall(geom.Point{4100.5, -730.25, 88}[:v.Dim()], v.R)
		case *updf.ConGauBall:
			proto = updf.NewConGauBall(geom.Point{4100.5, -730.25, 88}[:v.Dim()], v.R, v.Sigma)
		default:
			if f.pdf.ShapeKey() == "" {
				continue
			}
			proto = f.pdf // a rectangle's or polygon's key depends on where it lies
		}
		if proto.ShapeKey() != f.pdf.ShapeKey() {
			panic(f.name + ": prototype has another shape")
		}
		sh := NewShape(proto, UniformCatalog(15))
		cases = append(cases, shapeBenchCase{f.name, sh, f.pdf.MBR(), marginalBenchQuery(f.pdf.Dim())})
		if radial(proto) {
			// The ball cut at a corner 0.3 r from its centre on every
			// dimension: the first-order bracket leaves pq = 0.5 undecided,
			// so the pair terms run; they validate the 2-D Con-Gau, off its
			// quadrant table, and leave the others undecided.
			c, r := f.pdf.Center(), f.pdf.MBR().Side(0)/2
			lo, hi := make(geom.Point, len(c)), make(geom.Point, len(c))
			for i := range c {
				lo[i], hi[i] = c[i]-0.3*r, c[i]+2*r
			}
			cases = append(cases, shapeBenchCase{f.name + "-corner", sh, f.pdf.MBR(), geom.NewRect(lo, hi)})
		}
	}
	return cases
}

// TestShapeDecisionAllocatesNothing: the leaf test runs once per candidate
// entry, inside the traversal; with the shape's table warm it allocates
// nothing.
func TestShapeDecisionAllocatesNothing(t *testing.T) {
	for _, c := range shapeBenchCases() {
		c.shape.FilterMarginal(c.mbr, c.query, 0.5) // warm the tables
		if n := testing.AllocsPerRun(50, func() { c.shape.FilterMarginal(c.mbr, c.query, 0.5) }); n != 0 {
			t.Errorf("%s: %v allocations a call", c.name, n)
		}
	}
}

var outcomeSink Outcome

// BenchmarkShapeDecision is what a range query pays at the leaf per entry
// the stored faces leave undecided, to learn whether its record has to be
// read, with most faces clipped, and for each ball also cut at a corner: 0
// allocs/op, two CDF evaluations a face and, for a ball the first-order
// bounds leave undecided, one a pair of faces and, in 2-D, a quadrant
// table read where the lower bound could validate — under a microsecond for
// every keyed family (the tabulated Con-Gau in 2-D on a warm table) but the
// 3-D Con-Gau, about 2.5 with its eight pair terms.
func BenchmarkShapeDecision(b *testing.B) {
	for _, c := range shapeBenchCases() {
		c.shape.FilterMarginal(c.mbr, c.query, 0.5)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				outcomeSink = c.shape.FilterMarginal(c.mbr, c.query, 0.5)
			}
		})
	}
}

// TestShapeTablesLazy: a shape allocates its tables on their first read,
// not when it is made: neither NewShape nor what a tree's shape table asks
// of a shape it decodes or enters (Reach), nor a leaf entry's faces
// (Translate) or PCRs, builds one — a table is 4 KB a dimension for the
// CDF, 17 KB for the quadrants. The first decision on a 2-D Con-Gau shape,
// at a corner where the pair terms run, builds its two CDF tables and its
// quadrant table; on a 2-D uniform ball, whose marginals are closed form,
// the quadrant table alone; on any 3-D shape none.
func TestShapeTablesLazy(t *testing.T) {
	built := func(s *Shape) (cdf, quad int) {
		for i := range s.cdf {
			if s.cdf[i].cdf != nil {
				cdf++
			}
		}
		if s.quad != nil && s.quad.q != nil {
			quad++
		}
		return cdf, quad
	}
	box := geom.NewRect(geom.Point{100, 200, 50}, geom.Point{600, 500, 450})
	for _, tc := range []struct {
		proto     updf.PDF
		cdf, quad int
	}{
		{updf.NewConGauBall(geom.Point{40, -7}, 250, 125), 2, 1},
		{updf.NewUniformBall(geom.Point{40, -7}, 250), 0, 1},
		{updf.NewConGauBall(geom.Point{40, -7, 3}, 250, 125), 0, 0},
		{updf.NewUniformBall(geom.Point{40, -7, 3}, 250), 0, 0},
		{updf.NewUniformRect(box), 0, 0},
		{updf.NewGaussRect(box, box.Center(), []float64{120, 90, 150}), 0, 0},
	} {
		s := NewShape(tc.proto, UniformCatalog(15))
		mbr, c := tc.proto.MBR(), tc.proto.Center()
		var f Faces
		s.Reach()
		s.Translate(&f, mbr)
		s.PCRs(c, mbr)
		if cdf, quad := built(s); cdf != 0 || quad != 0 {
			t.Fatalf("%s: %d CDF and %d quadrant tables before any decision", tc.proto.ShapeKey(), cdf, quad)
		}
		// Cut at a corner 0.3 of its half-extent from its centre on every
		// dimension: the first-order bracket leaves pq = 0.5 undecided.
		lo, hi := make(geom.Point, len(c)), make(geom.Point, len(c))
		for i := range c {
			lo[i], hi[i] = c[i]-0.3*mbr.Side(i)/2, mbr.Hi[i]+1
		}
		s.FilterMarginal(mbr, geom.NewRect(lo, hi), 0.5)
		if cdf, quad := built(s); cdf != tc.cdf || quad != tc.quad {
			t.Fatalf("%s: the first decision built %d CDF and %d quadrant tables, want %d and %d", tc.proto.ShapeKey(), cdf, quad, tc.cdf, tc.quad)
		}
	}
}

// TestNewShapeIsComplete: NewShape returns the whole fit. For one prototype
// of each keyed family in 2-D and 3-D it makes every marginal quantile
// evaluation the fit needs — as many as Compute makes for the prototype —
// and Reach, Translate, PCRs and Filter afterwards make none. Eight
// goroutines translating and filtering one object on a fresh shape get the
// same faces and outcomes, bit for bit.
func TestNewShapeIsComplete(t *testing.T) {
	cat := UniformCatalog(15)
	for _, family := range keyedFamilies {
		for _, d := range []int{2, 3} {
			if family == famPolygon && d == 3 {
				continue
			}
			name := fmt.Sprintf("%s-%dd", marginalFamilyNames[family], d)
			u := rand.New(rand.NewSource(int64(10*family + d))).Float64
			at := keyedShape(family, d, 40, u)
			proto, obj := at(shapeCentre(d, 100, u)), at(shapeCentre(d, 1e4, u))
			mbr := obj.MBR()
			lo, hi := make(geom.Point, d), make(geom.Point, d)
			for i := range lo {
				lo[i], hi[i] = mbr.Lo[i]+0.3*mbr.Side(i), mbr.Hi[i]+1
			}
			rq := geom.NewRect(lo, hi)

			before := updf.QuantileCDFCalls()
			Compute(proto, cat, nil)
			want := updf.QuantileCDFCalls() - before
			before = updf.QuantileCDFCalls()
			sh := NewShape(proto, cat)
			if got := updf.QuantileCDFCalls() - before; got != want || want == 0 {
				t.Fatalf("%s: NewShape made %d MarginalCDF evaluations, the fit makes %d", name, got, want)
			}
			var f Faces
			before = updf.QuantileCDFCalls()
			sh.Reach()
			sh.Translate(&f, mbr)
			sh.PCRs(obj.Center(), mbr)
			for _, pq := range []float64{0.1, 0.5, 0.9} {
				sh.Filter(&f, mbr, rq, pq)
			}
			if got := updf.QuantileCDFCalls() - before; got != 0 {
				t.Fatalf("%s: %d MarginalCDF evaluations after NewShape", name, got)
			}

			fresh := NewShape(proto, cat)
			var faces [8]Faces
			var outcomes [8][3]Outcome
			var wg sync.WaitGroup
			for g := range faces {
				wg.Add(1)
				go func() {
					defer wg.Done()
					fresh.Translate(&faces[g], mbr)
					var scratch Faces
					for k, pq := range []float64{0.1, 0.5, 0.9} {
						outcomes[g][k] = fresh.Filter(&scratch, mbr, rq, pq)
					}
				}()
			}
			wg.Wait()
			for g := range faces {
				for k, l := range faces[g] {
					if w := f[k]; math.Float64bits(l.alpha) != math.Float64bits(w.alpha) || math.Float64bits(l.beta) != math.Float64bits(w.beta) {
						t.Fatalf("%s: goroutine %d's face %d is %v, a serial Translate's %v", name, g, k, l, w)
					}
				}
				if outcomes[g] != outcomes[0] {
					t.Fatalf("%s: goroutine %d decided %v, goroutine 0 %v", name, g, outcomes[g], outcomes[0])
				}
			}
		}
	}
}
