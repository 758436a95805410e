// Package dataset generates the three evaluation datasets of the U-tree
// paper (Section 6). The original LB and CA point sets come from the
// census TIGER archive, which is unavailable offline; they are replaced by
// seeded synthetic generators reproducing their statistical role — spatially
// clustered point populations in a [0, 10000]² domain used as (i) centers of
// fixed-radius uncertainty regions and (ii) the query-location
// distribution. Aircraft is generated exactly as the paper describes.
//
// All generators are deterministic in their seed.
package dataset

import (
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/updf"
)

// Domain is the normalized domain length of every axis (Section 6: "All
// dimensions are normalized to have domains [0, 10000]").
const Domain = 10000.0

// Name identifies one of the paper's datasets.
type Name string

// The paper's three datasets.
const (
	LB       Name = "LB"       // 53k points, uniform circular uncertainty (r=250)
	CA       Name = "CA"       // 62k points, Con-Gau circular uncertainty (r=250, σ=125)
	Aircraft Name = "Aircraft" // 100k 3D aircraft, uniform spherical uncertainty (r=125)
)

// Sizes of the paper's datasets.
const (
	LBSize       = 53000
	CASize       = 62000
	AircraftSize = 100000
)

// Config controls generation.
type Config struct {
	Name Name
	// Scale shrinks the object count (1.0 = paper size). The experiments
	// default to scaled-down datasets so `go test -bench` stays tractable;
	// cmd/ubench -scale 1 reproduces paper scale.
	Scale float64
	Seed  int64
}

// Generate produces the uncertain objects of the chosen dataset.
func Generate(cfg Config) []core.Object {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	switch cfg.Name {
	case LB:
		n := scaled(LBSize, cfg.Scale)
		pts := ClusteredPoints(n, 2, cfg.Seed, 40, 0.05)
		return wrapUniform(pts, 250)
	case CA:
		n := scaled(CASize, cfg.Scale)
		pts := ClusteredPoints(n, 2, cfg.Seed+1, 55, 0.08)
		return wrapConGau(pts, 250, 125)
	case Aircraft:
		n := scaled(AircraftSize, cfg.Scale)
		return aircraft(n, cfg.Seed+2)
	default:
		panic("dataset: unknown dataset " + string(cfg.Name))
	}
}

// Points returns just the underlying point set (query-center sampling uses
// this).
func Points(cfg Config) []geom.Point {
	objs := Generate(cfg)
	pts := make([]geom.Point, len(objs))
	for i, o := range objs {
		pts[i] = o.PDF.Center()
	}
	return pts
}

func scaled(n int, scale float64) int {
	v := int(float64(n) * scale)
	if v < 100 {
		v = 100
	}
	return v
}

// ClusteredPoints generates n points in [0, Domain]^dim with geographic-like
// skew: a two-level Gaussian mixture ("metro areas" with "sub-clusters")
// plus a uniform background fraction. Cluster centers, spreads and weights
// are drawn from the seed.
func ClusteredPoints(n, dim int, seed int64, clusters int, backgroundFrac float64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	type cluster struct {
		center geom.Point
		spread float64
		weight float64
		subs   []geom.Point
	}
	cs := make([]cluster, clusters)
	totalW := 0.0
	for i := range cs {
		c := cluster{
			center: randPoint(rng, dim, Domain),
			spread: 120 + rng.Float64()*700,
			// Zipf-ish weights: few dense metros, many sparse towns.
			weight: 1 / math.Pow(float64(i+1), 0.8),
		}
		nSubs := 1 + rng.Intn(5)
		for s := 0; s < nSubs; s++ {
			sub := make(geom.Point, dim)
			for k := 0; k < dim; k++ {
				sub[k] = c.center[k] + rng.NormFloat64()*c.spread
			}
			c.subs = append(c.subs, sub)
		}
		totalW += c.weight
		cs[i] = c
	}
	pts := make([]geom.Point, 0, n)
	for len(pts) < n {
		if rng.Float64() < backgroundFrac {
			pts = append(pts, randPoint(rng, dim, Domain))
			continue
		}
		// Pick a cluster by weight.
		w := rng.Float64() * totalW
		ci := 0
		for ; ci < len(cs)-1; ci++ {
			if w < cs[ci].weight {
				break
			}
			w -= cs[ci].weight
		}
		c := cs[ci]
		sub := c.subs[rng.Intn(len(c.subs))]
		p := make(geom.Point, dim)
		ok := true
		for k := 0; k < dim; k++ {
			p[k] = sub[k] + rng.NormFloat64()*c.spread*0.35
			if p[k] < 0 || p[k] > Domain {
				ok = false
				break
			}
		}
		if ok {
			pts = append(pts, p)
		}
	}
	return pts
}

func randPoint(rng *rand.Rand, dim int, span float64) geom.Point {
	p := make(geom.Point, dim)
	for i := range p {
		p[i] = rng.Float64() * span
	}
	return p
}

// wrapUniform turns points into uncertain objects with uniform circular
// uncertainty regions of the given radius, clamping centers so regions stay
// inside the domain.
func wrapUniform(pts []geom.Point, radius float64) []core.Object {
	objs := make([]core.Object, len(pts))
	for i, p := range pts {
		objs[i] = core.Object{
			ID:  int64(i),
			PDF: updf.NewUniformBall(clampCenter(p, radius), radius),
		}
	}
	return objs
}

// wrapConGau is wrapUniform with the paper's Constrained Gaussian pdf.
func wrapConGau(pts []geom.Point, radius, sigma float64) []core.Object {
	objs := make([]core.Object, len(pts))
	for i, p := range pts {
		objs[i] = core.Object{
			ID:  int64(i),
			PDF: updf.NewConGauBall(clampCenter(p, radius), radius, sigma),
		}
	}
	return objs
}

func clampCenter(p geom.Point, radius float64) geom.Point {
	q := p.Clone()
	for i := range q {
		if q[i] < radius {
			q[i] = radius
		}
		if q[i] > Domain-radius {
			q[i] = Domain - radius
		}
	}
	return q
}

// aircraft reproduces the paper's 3D Aircraft generator: 2000 "airports"
// sampled from an LB-like distribution; each aircraft's (x, y) is a random
// point on the segment between two random airports, its altitude uniform in
// [0, 10000]; uncertainty regions are spheres of radius 125 with uniform
// pdfs.
func aircraft(n int, seed int64) []core.Object {
	rng := rand.New(rand.NewSource(seed))
	airports := ClusteredPoints(2000, 2, seed*3+7, 40, 0.05)
	objs := make([]core.Object, n)
	const r = 125.0
	for i := 0; i < n; i++ {
		src := airports[rng.Intn(len(airports))]
		dst := airports[rng.Intn(len(airports))]
		f := rng.Float64()
		x := src[0] + (dst[0]-src[0])*f
		y := src[1] + (dst[1]-src[1])*f
		z := rng.Float64() * Domain
		ctr := clampCenter(geom.Point{x, y, z}, r)
		objs[i] = core.Object{ID: int64(i), PDF: updf.NewUniformBall(ctr, r)}
	}
	return objs
}

// Dim returns the dimensionality of a dataset.
func (n Name) Dim() int {
	if n == Aircraft {
		return 3
	}
	return 2
}

// All lists the paper's datasets in presentation order.
func All() []Name { return []Name{LB, CA, Aircraft} }
