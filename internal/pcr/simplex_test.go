package pcr

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSimplexSimpleMax(t *testing.T) {
	// max 3x + 5y s.t. x ≤ 4; 2y ≤ 12; 3x + 2y ≤ 18 → x=2, y=6, z=36.
	p := lpProblem{
		C: []float64{3, 5},
		A: [][]float64{{1, 0}, {0, 2}, {3, 2}},
		B: []float64{4, 12, 18},
	}
	x, v, err := lpSolve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(v, 36, 1e-7) || !approx(x[0], 2, 1e-7) || !approx(x[1], 6, 1e-7) {
		t.Fatalf("x=%v v=%g, want (2,6) 36", x, v)
	}
}

func TestSimplexNegativeRHSRequiresPhase1(t *testing.T) {
	// max -x s.t. -x ≤ -3 (i.e. x ≥ 3); x ≤ 10 → x=3, z=-3.
	p := lpProblem{
		C: []float64{-1},
		A: [][]float64{{-1}, {1}},
		B: []float64{-3, 10},
	}
	x, v, err := lpSolve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(x[0], 3, 1e-7) || !approx(v, -3, 1e-7) {
		t.Fatalf("x=%v v=%g, want x=3 v=-3", x, v)
	}
}

func TestSimplexFreeVariableGoesNegative(t *testing.T) {
	// max -x s.t. -x ≤ 5 (x ≥ -5) → x=-5, z=5.
	p := lpProblem{
		C: []float64{-1},
		A: [][]float64{{-1}},
		B: []float64{5},
	}
	x, v, err := lpSolve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(x[0], -5, 1e-7) || !approx(v, 5, 1e-7) {
		t.Fatalf("x=%v v=%g, want x=-5 v=5", x, v)
	}
}

func TestSimplexInfeasible(t *testing.T) {
	// x ≤ 1 and x ≥ 3.
	p := lpProblem{
		C: []float64{1},
		A: [][]float64{{1}, {-1}},
		B: []float64{1, -3},
	}
	_, _, err := lpSolve(p)
	if !errors.Is(err, errLPInfeasible) {
		t.Fatalf("err = %v, want errLPInfeasible", err)
	}
}

func TestSimplexUnbounded(t *testing.T) {
	// max x s.t. -x ≤ 0 (x ≥ 0 only).
	p := lpProblem{
		C: []float64{1},
		A: [][]float64{{-1}},
		B: []float64{0},
	}
	_, _, err := lpSolve(p)
	if !errors.Is(err, errLPUnbounded) {
		t.Fatalf("err = %v, want errLPUnbounded", err)
	}
}

func TestSimplexEqualityViaTwoInequalities(t *testing.T) {
	// max x+y s.t. x+y ≤ 4, -(x+y) ≤ -4 (x+y=4), x ≤ 3, y ≤ 3 → z=4.
	p := lpProblem{
		C: []float64{1, 1},
		A: [][]float64{{1, 1}, {-1, -1}, {1, 0}, {0, 1}},
		B: []float64{4, -4, 3, 3},
	}
	_, v, err := lpSolve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(v, 4, 1e-7) {
		t.Fatalf("v=%g, want 4", v)
	}
}

func TestSimplexDegenerateNoCycle(t *testing.T) {
	// A classically degenerate LP (Beale-like); Bland's rule must terminate.
	p := lpProblem{
		C: []float64{0.75, -150, 0.02, -6},
		A: [][]float64{
			{0.25, -60, -0.04, 9},
			{0.5, -90, -0.02, 3},
			{0, 0, 1, 0},
			{-1, 0, 0, 0}, // x1 ≥ 0
			{0, -1, 0, 0}, // x2 ≥ 0
			{0, 0, -1, 0},
			{0, 0, 0, -1},
		},
		B: []float64{0, 0, 1, 0, 0, 0, 0},
	}
	_, v, err := lpSolve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(v, 0.05, 1e-7) {
		t.Fatalf("Beale optimum = %g, want 0.05", v)
	}
}

func TestSimplexValidateErrors(t *testing.T) {
	if _, _, err := lpSolve(lpProblem{}); err == nil {
		t.Error("empty problem should error")
	}
	if _, _, err := lpSolve(lpProblem{C: []float64{1}, A: [][]float64{{1, 2}}, B: []float64{1}}); err == nil {
		t.Error("ragged row should error")
	}
	if _, _, err := lpSolve(lpProblem{C: []float64{1}, A: [][]float64{{1}}, B: []float64{1, 2}}); err == nil {
		t.Error("row/bound mismatch should error")
	}
}

func TestSimplexNoConstraintsUnbounded(t *testing.T) {
	p := lpProblem{C: []float64{1}, A: nil, B: nil}
	_, _, err := lpSolve(p)
	if !errors.Is(err, errLPUnbounded) {
		t.Fatalf("err = %v, want errLPUnbounded", err)
	}
}

// TestSimplexAgainstGridBruteForce cross-checks the simplex against exhaustive
// vertex enumeration on random bounded 2-variable problems.
func TestSimplexAgainstGridBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		// Box constraints keep it bounded and feasible: |x|,|y| ≤ 10.
		a := [][]float64{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}
		b := []float64{10, 10, 10, 10}
		// Add a couple of random half-planes through large offsets so the
		// origin (a feasible point) stays feasible.
		for k := 0; k < 2; k++ {
			a = append(a, []float64{rng.NormFloat64(), rng.NormFloat64()})
			b = append(b, math.Abs(rng.NormFloat64())*10+1)
		}
		c := []float64{rng.NormFloat64(), rng.NormFloat64()}
		p := lpProblem{C: c, A: a, B: b}
		x, v, err := lpSolve(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Feasibility check.
		for i, row := range a {
			lhs := row[0]*x[0] + row[1]*x[1]
			if lhs > b[i]+1e-6 {
				t.Fatalf("trial %d: constraint %d violated: %g > %g", trial, i, lhs, b[i])
			}
		}
		// Optimality via dense grid (resolution 0.05 → tolerance scaled).
		best := math.Inf(-1)
		for xi := -10.0; xi <= 10.0; xi += 0.05 {
			for yi := -10.0; yi <= 10.0; yi += 0.05 {
				ok := true
				for i, row := range a {
					if row[0]*xi+row[1]*yi > b[i]+1e-9 {
						ok = false
						break
					}
				}
				if ok {
					if val := c[0]*xi + c[1]*yi; val > best {
						best = val
					}
				}
			}
		}
		if v < best-0.05*(math.Abs(c[0])+math.Abs(c[1]))-1e-6 {
			t.Fatalf("trial %d: simplex %g below grid optimum %g (c=%v)", trial, v, best, c)
		}
	}
}

// TestSimplexCFBShapedProblem mirrors the exact LP structure used for cfb_out
// fitting: maximize m·α − P·β subject to α − β·p_j ≤ c_j.
func TestSimplexCFBShapedProblem(t *testing.T) {
	ps := []float64{0, 0.125, 0.25, 0.375, 0.5}
	cs := []float64{-10, -8, -5, -3, -1} // pcr lows, increasing with p
	m := float64(len(ps))
	var P float64
	for _, p := range ps {
		P += p
	}
	a := make([][]float64, len(ps))
	b := make([]float64, len(ps))
	for j := range ps {
		a[j] = []float64{1, -ps[j]}
		b[j] = cs[j]
	}
	x, _, err := lpSolve(lpProblem{C: []float64{m, -P}, A: a, B: b})
	if err != nil {
		t.Fatal(err)
	}
	alpha, beta := x[0], x[1]
	// Solution must satisfy every covering constraint.
	for j := range ps {
		if alpha-beta*ps[j] > cs[j]+1e-7 {
			t.Fatalf("cover violated at p=%g: %g > %g", ps[j], alpha-beta*ps[j], cs[j])
		}
	}
	// Exact oracle: a bounded 2-variable LP attains its optimum at the
	// intersection of two active constraints; enumerate all pairs.
	best := math.Inf(-1)
	for i := 0; i < len(ps); i++ {
		for j := i + 1; j < len(ps); j++ {
			// α − β·p_i = c_i and α − β·p_j = c_j.
			if ps[i] == ps[j] {
				continue
			}
			bt := (cs[i] - cs[j]) / (ps[j] - ps[i])
			al := cs[i] + bt*ps[i]
			feasible := true
			for k := range ps {
				if al-bt*ps[k] > cs[k]+1e-9 {
					feasible = false
					break
				}
			}
			if feasible {
				if obj := m*al - P*bt; obj > best {
					best = obj
				}
			}
		}
	}
	objSolve := m*alpha - P*beta
	if math.Abs(objSolve-best) > 1e-6 {
		t.Fatalf("simplex objective %g, active-set oracle %g", objSolve, best)
	}
}
