// Package pcr implements the filtering layer of the U-tree paper:
// probabilistically constrained regions (PCRs, Section 4.1), the finite
// U-catalog (Section 4.2) and conservative functional boxes (CFBs,
// Sections 4.3–4.4). The paper fits CFBs by linear programming; the
// programs' optimum lies on a convex-hull edge of the PCR faces, and cfb.go
// reads it off there instead of running the Simplex method — once per pdf
// shape (Shape): the faces of an object of a shape are the shape's,
// translated to it (Shape.Translate), and only an object without a shape is
// fitted by itself and stored as float32 (FitOut, FitIn). A leaf entry is
// decided by FilterCatalogPCR (U-PCR) or Faces.Filter (U-tree): the paper's
// pruning Rules 1–2 (Observations 2 and 3), then a two-sided bound on the
// qualification probability derived from the same stored faces
// (probbound.go). The bound's lower half is the one validation rule — the
// paper's validating Rules 3–5 are the special cases of it in which the
// query clips the object on a single axis — and its upper half prunes
// where Rules 1–2 cannot. Rules 3–5 and the simplex fit as printed survive
// as test-only references (reference_test.go).
package pcr

import (
	"fmt"
	"strconv"
)

// catalogEps absorbs floating-point noise when matching query thresholds
// against catalog values.
const catalogEps = 1e-12

// Catalog is the U-catalog: probability values p_1 < p_2 < … < p_m in
// [0, 0.5] at which PCRs are pre-computed. The paper (and the e.MBR(p)
// derivation in Section 5.1) requires p_1 = 0.
type Catalog struct {
	values []float64
	// key identifies the catalog in QuantileCache keys; built once here
	// because the cache is consulted per object and dimension.
	key string
}

func newCatalog(values []float64) Catalog {
	c := Catalog{values: values}
	// Size plus max suffices for the uniform catalogs used here, but include
	// the sum to disambiguate custom catalogs.
	c.key = strconv.Itoa(c.Size()) + ":" +
		strconv.FormatFloat(c.Max(), 'g', -1, 64) + ":" +
		strconv.FormatFloat(c.Sum(), 'g', -1, 64)
	return c
}

// UniformCatalog returns the paper's evenly spaced catalog
// {0, 0.5/(m−1), …, 0.5}; the U-PCR experiments use m ∈ [3,12] and the
// U-tree uses m = 15 (values j/28).
func UniformCatalog(m int) Catalog {
	if m < 2 {
		panic(fmt.Sprintf("pcr: catalog needs at least 2 values, got %d", m))
	}
	v := make([]float64, m)
	for j := 0; j < m; j++ {
		v[j] = 0.5 * float64(j) / float64(m-1)
	}
	return newCatalog(v)
}

// Size returns m, the number of catalog values.
func (c Catalog) Size() int { return len(c.values) }

// Value returns p_j (0-based j).
func (c Catalog) Value(j int) float64 { return c.values[j] }

// Max returns p_m, the largest catalog value.
func (c Catalog) Max() float64 { return c.values[len(c.values)-1] }

// Sum returns P = Σ p_j, the constant appearing in the CFB objective
// (Formula 11).
func (c Catalog) Sum() float64 {
	var s float64
	for _, v := range c.values {
		s += v
	}
	return s
}

// mean returns p̄ = P/m, the abscissa at which a face's height is the CFB
// objective (cfb.go).
func (c Catalog) mean() float64 { return c.Sum() / float64(len(c.values)) }

// MedianIndex returns the index of the median catalog value p_{⌈m/2⌉}, the
// value the U-tree split sorts by (Section 5.3).
func (c Catalog) MedianIndex() int { return len(c.values) / 2 }

// LargestLE returns the index of the largest catalog value ≤ x, with ok
// false when every value exceeds x.
func (c Catalog) LargestLE(x float64) (int, bool) {
	x += catalogEps
	idx, ok := -1, false
	for j, v := range c.values {
		if v <= x {
			idx, ok = j, true
		} else {
			break
		}
	}
	return idx, ok
}

// SmallestGE returns the index of the smallest catalog value ≥ x, with ok
// false when every value is below x.
func (c Catalog) SmallestGE(x float64) (int, bool) {
	x -= catalogEps
	for j, v := range c.values {
		if v >= x {
			return j, true
		}
	}
	return -1, false
}

// Level is the probability at which a shape's offset k is the quantile
// (Shape.Reach): p_j for k = 2j and 1 − p_j for k = 2j+1, evaluated as the
// offsets were.
func (c Catalog) Level(k int) float64 {
	if k%2 == 0 {
		return c.values[k/2]
	}
	return 1 - c.values[k/2]
}

// QuantileLevels returns the levels a descent at threshold pq reads every
// object's quantiles at (Shape.Reach), as offset indices: a the smallest
// level at or above 1 − pq, b the largest at or below pq. An object that
// appears in rq with probability at least pq has rq.lo ≤ Q(1 − pq) ≤ Q(a)
// and rq.hi ≥ Q(pq) ≥ Q(b) on every dimension. A level within catalogEps of
// its bound is passed over, so a and b hold their bounds whatever rounding
// pq carries; levels 1 and 0 (the MBR's faces) always do.
func (c Catalog) QuantileLevels(pq float64) (a, b int) {
	a, b = 1, 0
	for k := range 2 * len(c.values) {
		l := c.Level(k)
		if l >= 1-pq+catalogEps && l < c.Level(a) {
			a = k
		}
		if l <= pq-catalogEps && l > c.Level(b) {
			b = k
		}
	}
	return a, b
}
