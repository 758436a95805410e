package pcr

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/updf"
)

// The generators below build a pdf and a query rectangle from a stream of
// uniform [0, 1) variates, so the property test (a seeded rand) and the fuzz
// target (the fuzzer's bytes) check the same cases the same way.

// The updf families, as marginalPDF numbers them.
const (
	famUniformBall = iota
	famUniformRect
	famConGau
	famGaussRect
	famExpoRect
	famHistogram
	famPolygon
	famMixture
	marginalFamilies
)

var marginalFamilyNames = [marginalFamilies]string{
	"uniform-ball", "uniform-rect", "con-gau", "gauss-rect", "expo-rect", "histogram", "polygon", "mixture",
}

// marginalPDF builds a pdf of the given family in d ∈ {2, 3} dimensions; a
// polygon is 2-D whatever d says. Con-Gau shapes come from a small grid of
// (r, r/σ), so that a run builds a handful of CDF tables, not one a pdf.
func marginalPDF(family, d int, u func() float64) updf.PDF {
	ctr := make(geom.Point, d)
	for i := range ctr {
		ctr[i] = (u() - 0.5) * 4000
	}
	box := func() geom.Rect {
		lo, hi := make(geom.Point, d), make(geom.Point, d)
		for i := range lo {
			half := 1 + 200*u()
			lo[i], hi[i] = ctr[i]-half, ctr[i]+half
		}
		return geom.NewRect(lo, hi)
	}
	switch family {
	case famUniformBall:
		return updf.NewUniformBall(ctr, 1+300*u())
	case famUniformRect:
		return updf.NewUniformRect(box())
	case famConGau:
		r := 50 * float64(1+int(4*u()))
		ratio := []float64{0.25, 1, 2, 8}[int(4*u())]
		return updf.NewConGauBall(ctr, r, r/ratio)
	case famGaussRect:
		b := box()
		mu, sigma := make(geom.Point, d), make([]float64, d)
		for i := range mu {
			mu[i] = b.Lo[i] + u()*b.Side(i)
			sigma[i] = (0.1 + 2*u()) * b.Side(i)
		}
		return updf.NewGaussRect(b, mu, sigma)
	case famExpoRect:
		b := box()
		rate := make([]float64, d)
		for i := range rate {
			rate[i] = 6 * u() / b.Side(i)
		}
		if u() < 0.25 {
			rate[0] = 0 // uniform on that dimension
		}
		return updf.NewExpoRect(b, rate)
	case famHistogram:
		bins, cells := make([]int, d), 1
		for i := range bins {
			bins[i] = 1 + int(4*u())
			cells *= bins[i]
		}
		w := make([]float64, cells)
		for i := range w {
			if w[i] = u(); w[i] < 0.2 {
				w[i] = 0 // empty cells: flat stretches of the marginal CDF
			}
		}
		w[int(u()*float64(cells))] = 1
		return updf.NewHistogramRect(box(), bins, w)
	case famPolygon:
		// Points on an ellipse are in convex position and never collinear.
		n := 3 + int(6*u())
		a, b := 1+200*u(), 1+200*u()
		pts := make([]geom.Point, n)
		for k := range pts {
			th := 2 * math.Pi * (float64(k) + 0.8*u()) / float64(n)
			pts[k] = geom.Point{ctr[0] + a*math.Cos(th), ctr[1] + b*math.Sin(th)}
		}
		return updf.NewUniformPolygon(pts)
	default:
		// Two components of other families, offset so the supports overlap
		// in part; in 2-D one of them may be the tabulated Con-Gau.
		comps := make([]updf.PDF, 2)
		for k := range comps {
			f := int(u() * famPolygon) // any family before polygon
			comps[k] = marginalPDF(f, d, func() float64 { return 0.45 + 0.1*u() })
		}
		return updf.NewMixture(comps, []float64{0.1 + u(), 0.1 + u()})
	}
}

// The query rectangles the property asks for by name.
const (
	rectStraddle   = iota // a random box around the support: any relation
	rectTangent           // one face exactly on a face of the MBR
	rectCorner            // overlaps the MBR at one corner only
	rectSingleAxis        // covers the MBR on every dimension but one
	rectContaining        // covers the MBR
	rectDisjoint          // misses the MBR
	marginalRectKinds
)

// marginalRect draws a query rectangle of the given kind around mbr.
func marginalRect(kind int, mbr geom.Rect, u func() float64) geom.Rect {
	d := mbr.Dim()
	lo, hi := make(geom.Point, d), make(geom.Point, d)
	for i := range lo {
		lo[i] = mbr.Lo[i] + (u()*3-1)*mbr.Side(i)
		hi[i] = lo[i] + u()*2*mbr.Side(i)
	}
	axis := int(u() * float64(d))
	switch kind {
	case rectTangent:
		switch int(u() * 4) {
		case 0: // touches the support from the left
			lo[axis], hi[axis] = mbr.Lo[axis]-mbr.Side(axis), mbr.Lo[axis]
		case 1: // touches it from the right
			lo[axis], hi[axis] = mbr.Hi[axis], mbr.Hi[axis]+mbr.Side(axis)
		case 2: // starts on its low face
			lo[axis], hi[axis] = mbr.Lo[axis], mbr.Lo[axis]+u()*mbr.Side(axis)
		default: // ends on its high face
			lo[axis], hi[axis] = mbr.Hi[axis]-u()*mbr.Side(axis), mbr.Hi[axis]
		}
	case rectCorner:
		for i := range lo {
			if reach := (0.01 + 0.3*u()) * mbr.Side(i); u() < 0.5 {
				lo[i], hi[i] = mbr.Lo[i]-mbr.Side(i), mbr.Lo[i]+reach
			} else {
				lo[i], hi[i] = mbr.Hi[i]-reach, mbr.Hi[i]+mbr.Side(i)
			}
		}
	case rectSingleAxis, rectContaining:
		for i := range lo {
			lo[i], hi[i] = mbr.Lo[i]-u()*mbr.Side(i), mbr.Hi[i]+u()*mbr.Side(i)
		}
		if kind == rectSingleAxis {
			a, b := mbr.Lo[axis]+u()*mbr.Side(axis), mbr.Lo[axis]+u()*mbr.Side(axis)
			switch int(u() * 3) {
			case 0:
				lo[axis] = a // a left face through the support
			case 1:
				hi[axis] = a // a right face through it
			default:
				lo[axis], hi[axis] = min(a, b), max(a, b) // a slab inside it
			}
		}
	case rectDisjoint:
		lo[axis] = mbr.Hi[axis] + u()*mbr.Side(axis)
		hi[axis] = lo[axis] + mbr.Side(axis)
	}
	return geom.NewRect(lo, hi)
}

// closedFormMarginals reports whether every marginal ProbBoundsMarginal
// reads of p is exact: no table anywhere in it.
func closedFormMarginals(p updf.PDF) bool {
	if m, ok := p.(*updf.Mixture); ok {
		for k := 0; k < m.Components(); k++ {
			if c, _ := m.Component(k); !closedFormMarginals(c) {
				return false
			}
		}
		return true
	}
	return !updf.MarginalTable(p)
}

// oracleTol is how far ExactProb itself may sit from the truth: 1e-9 for
// every family, the balls' closed forms and fixed Gauss–Legendre rules
// included. The bounds are held to the oracle, not the oracle to itself.
const oracleTol = 1e-9

// checkMarginalBounds is the contract of the refinement pre-test on one
// case, whose ExactProb is exact: the bounds hold it, close to a point when rq
// clips a closed-form pdf on one axis only, and FilterMarginal never decides
// against the exact probability. s is p's shape, nil for none.
func checkMarginalBounds(t *testing.T, s *Shape, p updf.PDF, rq geom.Rect, exact float64) {
	t.Helper()
	tol := oracleTol
	lb, ub := ProbBoundsMarginal(p, rq, s)
	if lb-tol > exact || exact > ub+tol {
		t.Fatalf("%T %v rq=%v: bounds [%.12f, %.12f] miss exact %.12f", p, p.MBR(), rq, lb, ub, exact)
	}
	if lb < 0 || ub > 1 || lb > ub {
		t.Fatalf("%T %v rq=%v: bounds [%v, %v] are not an interval in [0, 1]", p, p.MBR(), rq, lb, ub)
	}
	mbr, cut := p.MBR(), 0
	for i := range rq.Lo {
		if rq.Lo[i] > mbr.Lo[i] || rq.Hi[i] < mbr.Hi[i] {
			cut++
		}
	}
	if cut <= 1 && lb != ub && closedFormMarginals(p) {
		t.Fatalf("%T %v rq=%v: cut on %d axes, yet lb %v != ub %v", p, p.MBR(), rq, cut, lb, ub)
	}
	for _, pq := range boundTestThresholds {
		switch got := FilterMarginal(p, rq, pq, s); {
		case got == Validated && exact < pq-tol:
			t.Fatalf("%T %v rq=%v pq=%g: validated at exact %.12f", p, p.MBR(), rq, pq, exact)
		case got == PrunedByBound && exact >= pq+tol:
			t.Fatalf("%T %v rq=%v pq=%g: pruned at exact %.12f", p, p.MBR(), rq, pq, exact)
		}
	}
}

// TestProbBoundsMarginalSound: every family in 2-D and 3-D, 10⁴ rectangles
// each over ten shapes, a sixth of them of each named kind.
func TestProbBoundsMarginalSound(t *testing.T) {
	rects := 10000
	if testing.Short() {
		rects = 1000
	}
	var shapes shapeSet
	for family := 0; family < marginalFamilies; family++ {
		for _, d := range []int{2, 3} {
			if family == famPolygon && d == 3 {
				continue
			}
			t.Run(fmt.Sprintf("%s-%dd", marginalFamilyNames[family], d), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(100*family + d)))
				for shape := 0; shape < 10; shape++ {
					p := marginalPDF(family, d, rng.Float64)
					mbr, sh := p.MBR(), shapes.of(p)
					for q := 0; q < rects/10; q++ {
						rq := marginalRect(q%marginalRectKinds, mbr, rng.Float64)
						checkMarginalBounds(t, sh, p, rq, p.ExactProb(rq))
					}
				}
			})
		}
	}
}

// unitBytes reads uniform variates off a byte string, two bytes each, and
// 0.5 once it runs out.
type unitBytes struct{ b []byte }

func (s *unitBytes) next() float64 {
	if len(s.b) < 2 {
		return 0.5
	}
	v := float64(uint16(s.b[0])<<8|uint16(s.b[1])) / 65536
	s.b = s.b[2:]
	return v
}

// unitSeed is a fuzz seed: the header bytes, then each of v as the two
// bytes unitBytes reads it back from, to 2⁻¹⁶.
func unitSeed(header []byte, v ...float64) []byte {
	b := header
	for _, x := range v {
		n := uint16(x * 65536)
		b = append(b, byte(n>>8), byte(n))
	}
	return b
}

// fuzzShapes outlives the executions of one fuzz worker, so the handful of
// Con-Gau shapes marginalPDF draws are tabulated once each.
var fuzzShapes shapeSet

// FuzzProbBoundsMarginal drives checkMarginalBounds from the fuzzer's
// bytes: family, dimensionality and rectangle kind from the first three,
// every parameter and coordinate from the rest.
func FuzzProbBoundsMarginal(f *testing.F) {
	// Seeds: every family under every named rectangle kind, in 2-D and 3-D,
	// with mid-range parameters (an exhausted stream reads 0.5) and with a
	// stream of extremes.
	for family := 0; family < marginalFamilies; family++ {
		for kind := 0; kind < marginalRectKinds; kind++ {
			f.Add([]byte{byte(family), 2, byte(kind)})
			f.Add([]byte{byte(family), 3, byte(kind), 0xff, 0xff, 0, 0, 0xff, 0xff, 0, 1, 0x80, 0, 0xff, 0xff, 0, 0, 0, 0, 0xff, 0xff})
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		family, d, kind := int(data[0])%marginalFamilies, 2+int(data[1])%2, int(data[2])%marginalRectKinds
		src := unitBytes{data[3:]}
		p := marginalPDF(family, d, src.next)
		rq := marginalRect(kind, p.MBR(), src.next)
		checkMarginalBounds(t, fuzzShapes.of(p), p, rq, p.ExactProb(rq))
	})
}

// counted is a pdf that counts the MarginalCDF calls reaching it: made a
// shape's prototype, it counts what building the shape's tables evaluates.
type counted struct {
	updf.PDF
	calls *atomic.Int64
	hold  *hold
}

func (c counted) MarginalCDF(dim int, x float64) float64 {
	c.calls.Add(1)
	c.hold.first()
	return c.PDF.MarginalCDF(dim, x)
}

// hold keeps a table's builder inside its first evaluation of the
// prototype until each of its readers has asked for the table and then
// either read it or had holdGrace to. With the build behind a sync.Once the
// readers wait for the builder; without one — say a build behind
// "if t.cdf == nil" — a reader gets the table half built, or builds its
// own, while the first build is held, so a test of what they read fails
// without the race detector, on every run.
type hold struct {
	taken       atomic.Bool
	asked, read sync.WaitGroup
}

const holdGrace = 50 * time.Millisecond

func newHold(readers int) *hold {
	h := new(hold)
	h.asked.Add(readers)
	h.read.Add(readers)
	return h
}

// first holds the first call of all; every later one passes straight on.
func (h *hold) first() {
	if !h.taken.CompareAndSwap(false, true) {
		return
	}
	waitAtMost(&h.asked, 10*time.Second)
	waitAtMost(&h.read, holdGrace)
}

func waitAtMost(wg *sync.WaitGroup, d time.Duration) {
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(d):
	}
}

// TestCDFTableBrackets: a table's brackets hold the marginal CDF of every
// translate of its shape — on the knots, at the ends of the support, beyond
// them and at 10⁴ random offsets — and are narrow enough to decide anything.
func TestCDFTableBrackets(t *testing.T) {
	for name, tc := range map[string]struct {
		build, probe updf.PDF
		tol          float64 // of MarginalCDF itself
	}{
		// The CA dataset's shape, whose MarginalCDF is a fixed Gauss–Legendre
		// rule: the table is held to rounding.
		"con-gau": {updf.NewConGauBall(geom.Point{500, -20}, 250, 125), updf.NewConGauBall(geom.Point{-7301.5, 12.25}, 250, 125), 1e-12},
	} {
		t.Run(name, func(t *testing.T) {
			sh := NewShape(tc.build, UniformCatalog(15))
			for dim := 0; dim < 2; dim++ {
				tab := sh.table(dim)
				if tab == nil {
					t.Fatal("shape is not tabulated")
				}
				check := func(p updf.PDF, off, tol float64) {
					t.Helper()
					want := p.MarginalCDF(dim, p.Center()[dim]+off)
					lo, hi := tab.bracket(off)
					if lo-tol > want || want > hi+tol || hi-lo > 0.004 {
						t.Fatalf("dim %d offset %v: bracket [%.15f, %.15f], CDF %.15f", dim, off, lo, hi, want)
					}
				}
				// On the knots the table was built from, nothing is rounded:
				// the bracket holds the value exactly.
				for k := 0; k <= cdfKnots; k++ {
					check(tc.build, tab.knot(k), 0)
				}
				rng := rand.New(rand.NewSource(int64(dim)))
				ext := tab.hi - tab.lo
				offsets := []float64{tab.lo, tab.hi, tab.lo - 1e-9, tab.hi + 1e-9, math.Nextafter(tab.lo, 0), math.Nextafter(tab.hi, 0), tab.lo - ext, tab.hi + ext}
				for len(offsets) < 10000 {
					offsets = append(offsets, tab.lo+(rng.Float64()*1.2-0.1)*ext)
				}
				for _, off := range offsets {
					check(tc.probe, off, tc.tol)
				}
				if lo, hi := tab.bracket(tab.lo); lo != 0 || hi != 0 {
					t.Fatalf("dim %d: bracket at the low end [%v, %v], want exactly 0", dim, lo, hi)
				}
				if lo, hi := tab.bracket(tab.hi); lo != 1 || hi != 1 {
					t.Fatalf("dim %d: bracket at the high end [%v, %v], want exactly 1", dim, lo, hi)
				}
			}
		})
	}
}

// TestCDFTableBuiltOnce: eight queries meeting the same new shape at once,
// each on a translate of it, build its table once, from the prototype, on
// every dimension, and share it; each reads the table as a serial build
// makes it, nobody evaluates its marginal again afterwards, and every
// query's first-order bounds hold the ones the marginals themselves give.
// The build is held until every query has asked (hold).
func TestCDFTableBuiltOnce(t *testing.T) {
	var calls atomic.Int64
	proto := updf.NewConGauBall(geom.Point{0, 0}, 10, 5)
	sh := NewShape(proto, UniformCatalog(15))
	var tables [8][2]*cdfTable
	h := newHold(len(tables))
	sh.proto = counted{proto, &calls, h}
	var serial [2]cdfTable
	for dim := range serial {
		serial[dim].build(proto, dim)
	}
	rq := geom.NewRect(geom.Point{-4, -3}, geom.Point{5, 20})
	wantLb, wantUb := firstOrderMarginal(proto, rq, nil)

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
			for dim := range tables[g] {
				tab := sh.table(dim)
				if tab.lo != serial[dim].lo || tab.step != serial[dim].step || !slices.Equal(tab.cdf, serial[dim].cdf) {
					t.Errorf("goroutine %d read a table on dimension %d unlike the serial build's", g, dim)
				}
				tables[g][dim] = tab
			}
			h.read.Done()
			lb, ub := firstOrderMarginal(p, moved, sh)
			// A bracket between two knots is wider than the marginals' own
			// bounds: a pair as narrow as theirs was not read off the table.
			if lb > wantLb || ub < wantUb || ub-lb > wantUb-wantLb+0.02 || ub-lb <= wantUb-wantLb {
				t.Errorf("goroutine %d: bounds [%v, %v] from the table, [%v, %v] from the marginals themselves", g, lb, ub, wantLb, wantUb)
			}
		}()
	}
	close(start)
	wg.Wait()
	if got, once := calls.Load(), int64(2*(cdfKnots-1)); got != once {
		t.Fatalf("%d MarginalCDF calls for one shape in 2-D, want %d: a table was built more than once", got, once)
	}
	for g := range tables {
		if tables[g] != tables[0] {
			t.Fatalf("goroutine %d got tables %v, goroutine 0 %v", g, tables[g], tables[0])
		}
	}
	for dim := range tables[0] {
		sh.table(dim)
	}
	if got := calls.Load(); got != 2*(cdfKnots-1) {
		t.Fatalf("asking for a built table called MarginalCDF %d times", got-2*(cdfKnots-1))
	}
}

type namedPDF struct {
	name string
	pdf  updf.PDF
}

// marginalBenchPDFs is one pdf of every built-in family in 2-D and 3-D at
// the paper's sizes; marginalBenchRect clips each on every axis.
func marginalBenchPDFs() []namedPDF {
	rect := func(d int) geom.Rect {
		return geom.NewRect(geom.Point{100, 200, 50}[:d], geom.Point{600, 500, 450}[:d])
	}
	ctr := geom.Point{350, 350, 250}
	weights := func(n int) []float64 {
		w := make([]float64, n)
		for i := range w {
			w[i] = float64(1 + i%5)
		}
		return w
	}
	var pdfs []namedPDF
	for _, d := range []int{2, 3} {
		for _, f := range []namedPDF{
			{"uniform-ball", updf.NewUniformBall(ctr[:d], 250)},
			{"uniform-rect", updf.NewUniformRect(rect(d))},
			{"con-gau", updf.NewConGauBall(ctr[:d], 250, 125)},
			{"gauss-rect", updf.NewGaussRect(rect(d), ctr[:d], []float64{120, 90, 150}[:d])},
			{"expo-rect", updf.NewExpoRect(rect(d), []float64{0.01, 0.002, 0}[:d])},
			{"histogram", updf.NewHistogramRect(rect(d), []int{4, 3, 2}[:d], weights([]int{12, 24}[d-2]))},
			{"mixture", updf.NewMixture([]updf.PDF{updf.NewConGauBall(ctr[:d], 250, 125), updf.NewUniformRect(rect(d))}, []float64{2, 1})},
		} {
			pdfs = append(pdfs, namedPDF{fmt.Sprintf("%s-%dd", f.name, d), f.pdf})
		}
	}
	return append(pdfs, namedPDF{"polygon-2d", updf.NewUniformPolygon(
		[]geom.Point{{100, 250}, {300, 110}, {520, 200}, {600, 400}, {380, 500}, {150, 420}})})
}

func marginalBenchQuery(d int) geom.Rect {
	return geom.NewRect(geom.Point{280, 300, 120}[:d], geom.Point{700, 460, 400}[:d])
}

// TestProbBoundsMarginalAllocatesNothing: the pre-test runs once per
// refinement candidate; with the shape's table warm it allocates nothing for
// any built-in family — no MBR, no shape key string, no clipped polygon.
func TestProbBoundsMarginalAllocatesNothing(t *testing.T) {
	var shapes shapeSet
	for _, f := range marginalBenchPDFs() {
		p, rq, sh := f.pdf, marginalBenchQuery(f.pdf.Dim()), shapes.of(f.pdf)
		ProbBoundsMarginal(p, rq, sh) // warm the tables
		if n := testing.AllocsPerRun(50, func() { ProbBoundsMarginal(p, rq, sh) }); n != 0 {
			t.Errorf("%s: %v allocations a call", f.name, n)
		}
	}
}

var benchSink float64

// BenchmarkProbBoundsMarginal is the cost refinement pays per candidate
// before deciding whether to integrate: ≤ 1 µs and 0 allocs/op for every
// family, the tabulated Con-Gau in 2-D included.
func BenchmarkProbBoundsMarginal(b *testing.B) {
	var shapes shapeSet
	for _, f := range marginalBenchPDFs() {
		p, rq, sh := f.pdf, marginalBenchQuery(f.pdf.Dim()), shapes.of(f.pdf)
		ProbBoundsMarginal(p, rq, sh)
		b.Run(f.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				lb, ub := ProbBoundsMarginal(p, rq, sh)
				benchSink += lb + ub
			}
		})
	}
}
