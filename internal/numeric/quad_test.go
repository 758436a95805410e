package numeric

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

// AdaptiveSimpson left the product for GaussLegendre; it stays here, with
// its tests, as the rule the fixed one is checked against (internal/updf's
// reference_test.go holds the copy its ball integrals are checked against).
func AdaptiveSimpson(f func(float64) float64, a, b, tol float64) (float64, error) {
	if a == b {
		return 0, nil
	}
	if b < a {
		v, err := AdaptiveSimpson(f, b, a, tol)
		return -v, err
	}
	m := (a + b) / 2
	fa, fm, fb := f(a), f(m), f(b)
	v, ok := adaptiveAux(f, a, b, fa, fm, fb, (b-a)/6*(fa+4*fm+fb), tol, 60)
	if !ok {
		return v, errors.New("numeric: quadrature recursion limit reached")
	}
	return v, nil
}

func adaptiveAux(f func(float64) float64, a, b, fa, fm, fb, whole, tol float64, depth int) (float64, bool) {
	m := (a + b) / 2
	flm, frm := f((a+m)/2), f((m+b)/2)
	left := (m - a) / 6 * (fa + 4*flm + fm)
	right := (b - m) / 6 * (fm + 4*frm + fb)
	delta := left + right - whole
	if math.Abs(delta) <= 15*tol || depth <= 0 {
		return left + right + delta/15, math.Abs(delta) <= 15*tol
	}
	lv, lok := adaptiveAux(f, a, m, fa, flm, fm, left, tol/2, depth-1)
	rv, rok := adaptiveAux(f, m, b, fm, frm, fb, right, tol/2, depth-1)
	return lv + rv, lok && rok
}

// TestGaussLegendre: exact through degree 47 on one panel, and on smooth
// integrands the panels agree with the closed form and with Simpson at
// 1e-14 to rounding; it allocates nothing for a capturing closure.
func TestGaussLegendre(t *testing.T) {
	var wsum float64
	for _, w := range glWeights {
		wsum += 2 * w
	}
	if math.Abs(wsum-2) > 1e-14 {
		t.Fatalf("weights sum to %.17g, want 2", wsum)
	}
	for _, deg := range []int{0, 1, 2, 7, 30, 46, 47} {
		got := GaussLegendre(func(x float64) float64 { return math.Pow(x, float64(deg)) }, 0, 1, 1)
		if want := 1 / float64(deg+1); math.Abs(got-want) > 1e-15 {
			t.Errorf("∫₀¹ x^%d = %.17g, want %.17g", deg, got, want)
		}
	}
	for _, n := range []int{0, 1, 3} {
		if got := GaussLegendre(math.Sin, 0, math.Pi, n); math.Abs(got-2) > 1e-15 {
			t.Errorf("%d panels: ∫sin = %.17g, want 2", n, got)
		}
	}
	ref, _ := AdaptiveSimpson(NormalPDF, -3, 5, 1e-14)
	if got := GaussLegendre(NormalPDF, -3, 5, 4); math.Abs(got-ref) > 1e-14 {
		t.Errorf("∫φ: %.17g, Simpson %.17g", got, ref)
	}
	s := 2.0
	if n := testing.AllocsPerRun(100, func() {
		GaussLegendre(func(x float64) float64 { return NormalPDF(x / s) }, 0, 1, 2)
	}); n != 0 {
		t.Fatalf("GaussLegendre allocates %v times a call", n)
	}
}

func TestAdaptiveSimpsonPolynomial(t *testing.T) {
	// ∫₀¹ x² dx = 1/3. Simpson is exact for cubics.
	v, err := AdaptiveSimpson(func(x float64) float64 { return x * x }, 0, 1, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-1.0/3) > 1e-12 {
		t.Fatalf("∫x² = %g, want 1/3", v)
	}
}

func TestAdaptiveSimpsonTranscendental(t *testing.T) {
	// ∫₀^π sin x dx = 2.
	v, err := AdaptiveSimpson(math.Sin, 0, math.Pi, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-2) > 1e-9 {
		t.Fatalf("∫sin = %.15g, want 2", v)
	}
}

func TestAdaptiveSimpsonGaussian(t *testing.T) {
	// ∫_{-8}^{8} φ(x) dx ≈ 1.
	v, err := AdaptiveSimpson(NormalPDF, -8, 8, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-1) > 1e-10 {
		t.Fatalf("∫φ = %.15g, want 1", v)
	}
}

func TestAdaptiveSimpsonReversedAndEmpty(t *testing.T) {
	v, err := AdaptiveSimpson(math.Sin, math.Pi, 0, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v+2) > 1e-9 {
		t.Fatalf("reversed ∫sin = %g, want -2", v)
	}
	v, err = AdaptiveSimpson(math.Sin, 1, 1, 1e-10)
	if err != nil || v != 0 {
		t.Fatalf("empty interval = %g err=%v", v, err)
	}
}

func TestAdaptiveSimpsonSemicircle(t *testing.T) {
	// ∫_{-1}^{1} √(1-x²) dx = π/2. Endpoint derivative blowup exercises the
	// adaptivity.
	f := func(x float64) float64 { return math.Sqrt(math.Max(0, 1-x*x)) }
	v, err := AdaptiveSimpson(f, -1, 1, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-math.Pi/2) > 1e-7 {
		t.Fatalf("semicircle = %.12g, want %.12g", v, math.Pi/2)
	}
}

func TestBisectBasic(t *testing.T) {
	x, err := Bisect(func(x float64) float64 { return x*x - 2 }, 0, 2, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x-math.Sqrt2) > 1e-11 {
		t.Fatalf("root = %.15g, want √2", x)
	}
}

func TestBisectEndpointRoots(t *testing.T) {
	f := func(x float64) float64 { return x }
	if x, err := Bisect(f, 0, 1, 1e-12); err != nil || x != 0 {
		t.Fatalf("endpoint root lo: %g, %v", x, err)
	}
	if x, err := Bisect(f, -1, 0, 1e-12); err != nil || x != 0 {
		t.Fatalf("endpoint root hi: %g, %v", x, err)
	}
}

func TestBisectNoBracket(t *testing.T) {
	_, err := Bisect(func(x float64) float64 { return x*x + 1 }, -1, 1, 1e-9)
	if !errors.Is(err, ErrNoBracket) {
		t.Fatalf("err = %v, want ErrNoBracket", err)
	}
}

func TestBisectMonotoneCDFStyle(t *testing.T) {
	// Invert Φ at several quantiles via bisection; compare round trip.
	for _, p := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		x, err := Bisect(func(x float64) float64 { return NormalCDF(x) - p }, -10, 10, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		if got := NormalCDF(x); math.Abs(got-p) > 1e-10 {
			t.Fatalf("Φ(Φ⁻¹(%g)) = %g", p, got)
		}
	}
}

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145705},
		{1.959963984540054, 0.975},
	}
	for _, c := range cases {
		if got := NormalCDF(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Φ(%g) = %.16g, want %.16g", c.x, got, c.want)
		}
	}
}

func TestNormalIntervalMass(t *testing.T) {
	// Whole line ≈ 1; empty interval = 0; symmetric interval matches 2Φ(z)-1.
	if got := NormalIntervalMass(0, 1, -40, 40); math.Abs(got-1) > 1e-12 {
		t.Fatalf("full mass = %g", got)
	}
	if got := NormalIntervalMass(0, 1, 3, 1); got != 0 {
		t.Fatalf("inverted interval = %g, want 0", got)
	}
	want := 2*NormalCDF(1) - 1
	if got := NormalIntervalMass(5, 2, 3, 7); math.Abs(got-want) > 1e-12 {
		t.Fatalf("μ=5 σ=2 mass = %g, want %g", got, want)
	}
}

func TestPropertyNormalCDFMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		return NormalCDF(lo) <= NormalCDF(hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBisectStopsAtAdjacentFloats: a tolerance finer than the floats'
// spacing at the root ends the bisection once lo and hi are adjacent, with
// the answer the full 200 halvings reach, after a handful of evaluations.
func TestBisectStopsAtAdjacentFloats(t *testing.T) {
	// A sign change between two adjacent floats, r and the next: no zero.
	r := 1e7 + 3.3e-7
	calls := 0
	f := func(x float64) float64 {
		calls++
		if x <= r {
			return -1
		}
		return 1
	}
	lo, hi := 1e7, 1e7+1e-6
	x, err := Bisect(f, lo, hi, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if calls > 16 {
		t.Fatalf("%d evaluations for a bracket of %g ulps", calls, 1e-6/(math.Nextafter(lo, hi)-lo))
	}
	// The loop without the stop: every step past adjacency leaves lo, hi.
	for i := 0; i < 200 && hi-lo > 1e-12; i++ {
		if mid := lo + (hi-lo)/2; f(mid) > 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	if want := lo + (hi-lo)/2; x != want || (x != r && x != math.Nextafter(r, hi)) {
		t.Fatalf("root %v, the full bisection's %v, the sign changes after %v", x, want, r)
	}
}
