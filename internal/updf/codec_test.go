package updf

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
)

// TestRecentredEncodeIdentical: for a random ball q and a prototype p of
// q's shape centred anywhere else, p.Recentred(q.Center()) encodes to q's
// bytes, for both recentrable families in 1-, 2- and 3-D over random
// centres, radii and σ — the contract that lets an index store a keyed
// object as its centre alone.
func TestRecentredEncodeIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	point := func(d int, span float64) geom.Point {
		p := make(geom.Point, d)
		for i := range p {
			p[i] = (rng.Float64() - 0.5) * span
		}
		return p
	}
	for d := 1; d <= 3; d++ {
		for i := 0; i < 500; i++ {
			r := math.Exp(rng.Float64()*12 - 6) // 0.0025 … 400
			s := r * math.Exp(rng.Float64()*4-2)
			pairs := [][2]PDF{
				{NewUniformBall(point(d, 1e4), r), NewUniformBall(point(d, 1e4), r)},
				{NewConGauBall(point(d, 1e4), r, s), NewConGauBall(point(d, 1e4), r, s)},
			}
			for _, pq := range pairs {
				p, q := pq[0], pq[1]
				if p.ShapeKey() != q.ShapeKey() {
					t.Fatalf("%s and %s: one shape with two keys", p.ShapeKey(), q.ShapeKey())
				}
				rebuilt := p.(Recentrer).Recentred(q.Center())
				got, err1 := Encode(rebuilt)
				want, err2 := Encode(q)
				if err1 != nil || err2 != nil || !bytes.Equal(got, want) {
					t.Fatalf("%dd %s recentred at %v encodes to %x, the object to %x (%v, %v)",
						d, p.ShapeKey(), q.Center(), got, want, err1, err2)
				}
				// What the encoding leaves out too: the volume, λ.
				if !reflect.DeepEqual(rebuilt, q) {
					t.Fatalf("%dd %s: rebuilt %+v, the object is %+v", d, p.ShapeKey(), rebuilt, q)
				}
			}
		}
	}
	// Recentred keeps no alias to its argument.
	ctr := geom.Point{1, 2}
	b := NewUniformBall(geom.Point{0, 0}, 1).Recentred(ctr)
	ctr[0] = 99
	if b.Center()[0] != 1 {
		t.Fatal("Recentred aliases the centre it was given")
	}
}

// TestCodecKeepsNormalizedWeights: a mixture's weights and a histogram's
// masses read back bit for bit. Normalizing an already-normalized vector
// again moves about one in five by an ulp, so a decoder that renormalized
// would read back a pdf other than the one written.
func TestCodecKeepsNormalizedWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	box := geom.NewRect(geom.Point{0, 0}, geom.Point{10, 10})
	for i := 0; i < 2000; i++ {
		n := 2 + rng.Intn(4)
		w := make([]float64, n)
		comps := make([]PDF, n)
		for k := range w {
			w[k] = rng.Float64() * 10
			comps[k] = NewUniformBall(geom.Point{rng.Float64() * 10, rng.Float64() * 10}, 1)
		}
		h := NewHistogramRect(box, []int{1, n}, w)
		for _, p := range []PDF{NewMixture(comps, w), h} {
			enc, err := Encode(p)
			if err != nil {
				t.Fatal(err)
			}
			q, err := Decode(enc)
			if err != nil {
				t.Fatalf("weights %v: %v", w, err)
			}
			if again, _ := Encode(q); !bytes.Equal(again, enc) {
				t.Fatalf("weights %v: %T reads back as other bytes", w, p)
			}
		}
	}
}

// FuzzDecode feeds arbitrary bytes to the pdf codec: Decode returns
// ErrCorruptPDF or a pdf with an MBR, never panics, and the encoding is
// canonical — a pdf it returns encodes back to exactly the bytes it read.
func FuzzDecode(f *testing.F) {
	box := geom.NewRect(geom.Point{1, 2}, geom.Point{5, 9})
	seeds := []PDF{
		NewUniformBall(geom.Point{3}, 2),
		NewUniformBall(geom.Point{3, 4}, 2),
		NewUniformBall(geom.Point{3, 4, 5}, 2),
		NewConGauBall(geom.Point{3, 4}, 2, 1),
		NewConGauBall(geom.Point{3, 4, 5}, 2, 1),
		NewUniformRect(box),
		NewGaussRect(box, geom.Point{2, 5}, []float64{1, 2}),
		NewExpoRect(box, []float64{0.5, 2}),
		NewUniformPolygon([]geom.Point{{0, 0}, {4, 0}, {2, 3}, {1, 1}}),
		NewHistogramRect(box, []int{2, 3}, []float64{1, 2, 3, 4, 5, 6}),
		NewMixture([]PDF{NewUniformBall(geom.Point{3, 4}, 2), NewUniformRect(box)}, []float64{1, 3}),
	}
	for _, p := range seeds {
		enc, err := Encode(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(append(enc, 0))   // a trailing byte
		f.Add(enc[:len(enc)-1]) // cut short
	}
	f.Add([]byte{})
	f.Add([]byte{tagPolygon, 3, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptPDF) {
				t.Fatalf("Decode: %v, want ErrCorruptPDF", err)
			}
			return
		}
		if p.MBR().Dim() != p.Dim() {
			t.Fatalf("a %d-D pdf with a %d-D MBR", p.Dim(), p.MBR().Dim())
		}
		enc, err := Encode(p)
		if err != nil || !bytes.Equal(enc, data) {
			t.Fatalf("%T decoded from %x re-encodes to %x (%v)", p, data, enc, err)
		}
	})
}
