package updf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/geom"
)

// Type tags for the binary pdf encoding stored in the data records.
const (
	tagUniformBall   = 1
	tagUniformRect   = 2
	tagConGauBall    = 3
	tagGaussRect     = 4
	tagExpoRect      = 5
	tagHistogramRect = 6
	tagPolygon       = 7
	tagMixture       = 8
)

// ErrCorruptPDF is returned by Decode on malformed input.
var ErrCorruptPDF = errors.New("updf: corrupt pdf encoding")

type encoder struct{ buf []byte }

func (e *encoder) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *encoder) u16(v uint16) { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }
func (e *encoder) f64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}
func (e *encoder) point(p geom.Point) {
	for _, v := range p {
		e.f64(v)
	}
}

type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) u8() uint8 {
	if d.err != nil || d.off+1 > len(d.buf) {
		d.err = ErrCorruptPDF
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *decoder) u16() uint16 {
	if d.err != nil || d.off+2 > len(d.buf) {
		d.err = ErrCorruptPDF
		return 0
	}
	v := binary.LittleEndian.Uint16(d.buf[d.off:])
	d.off += 2
	return v
}

func (d *decoder) f64() float64 {
	if d.err != nil || d.off+8 > len(d.buf) {
		d.err = ErrCorruptPDF
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v
}

func (d *decoder) point(n int) geom.Point {
	p := make(geom.Point, n)
	for i := range p {
		p[i] = d.f64()
	}
	return p
}

// Encode serializes a pdf into the compact binary form stored in the data
// file (the "parameters of o.pdf" the paper keeps at the leaf's disk
// address).
func Encode(p PDF) ([]byte, error) {
	e := &encoder{}
	switch v := p.(type) {
	case *UniformBall:
		e.u8(tagUniformBall)
		e.u8(uint8(v.Dim()))
		e.point(v.Ctr)
		e.f64(v.R)
	case *UniformRect:
		e.u8(tagUniformRect)
		e.u8(uint8(v.Dim()))
		e.point(v.Rect.Lo)
		e.point(v.Rect.Hi)
	case *ConGauBall:
		e.u8(tagConGauBall)
		e.u8(uint8(v.Dim()))
		e.point(v.Ctr)
		e.f64(v.R)
		e.f64(v.Sigma)
	case *GaussRect:
		e.u8(tagGaussRect)
		e.u8(uint8(v.Dim()))
		e.point(v.Rect.Lo)
		e.point(v.Rect.Hi)
		e.point(v.Mu)
		e.point(v.Sigma)
	case *ExpoRect:
		e.u8(tagExpoRect)
		e.u8(uint8(v.Dim()))
		e.point(v.Rect.Lo)
		e.point(v.Rect.Hi)
		e.point(v.Rate)
	case *HistogramRect:
		e.u8(tagHistogramRect)
		e.u8(uint8(v.Dim()))
		e.point(v.Rect.Lo)
		e.point(v.Rect.Hi)
		for _, b := range v.Bins {
			e.u16(uint16(b))
		}
		e.u16(uint16(len(v.Mass)))
		e.point(v.Mass)
	case *UniformPolygon:
		e.u8(tagPolygon)
		e.u8(2)
		e.u16(uint16(len(v.verts)))
		for _, vert := range v.verts {
			e.point(vert)
		}
	case *Mixture:
		e.u8(tagMixture)
		e.u8(uint8(v.Dim()))
		e.u16(uint16(len(v.comps)))
		for i, c := range v.comps {
			e.f64(v.weights[i])
			sub, err := Encode(c)
			if err != nil {
				return nil, err
			}
			e.u16(uint16(len(sub)))
			e.buf = append(e.buf, sub...)
		}
	default:
		return nil, fmt.Errorf("updf: cannot encode pdf of type %T", p)
	}
	return e.buf, nil
}

// Decode reverses Encode. Corrupt input yields ErrCorruptPDF (constructor
// panics on decoded-but-invalid parameters are converted to errors). The
// encoding is canonical: what Decode accepts, Encode writes back byte for
// byte — no trailing bytes, a polygon's vertices its own hull in hull
// order, a mixture's weights and a histogram's masses already normalized
// (taken as they are, so a pdf read back is the pdf written).
func Decode(buf []byte) (p PDF, err error) {
	defer func() {
		if r := recover(); r != nil {
			p, err = nil, fmt.Errorf("%w: %v", ErrCorruptPDF, r)
		}
	}()
	return decode(buf)
}

func decode(buf []byte) (PDF, error) {
	d := &decoder{buf: buf}
	tag := d.u8()
	dim := int(d.u8())
	if d.err != nil {
		return nil, d.err
	}
	if dim < 1 || dim > 16 {
		return nil, fmt.Errorf("%w: dimensionality %d", ErrCorruptPDF, dim)
	}
	var p PDF
	switch tag {
	case tagUniformBall:
		ctr := d.point(dim)
		r := d.f64()
		if d.err == nil {
			p = NewUniformBall(ctr, r)
		}
	case tagUniformRect:
		lo := d.point(dim)
		hi := d.point(dim)
		if d.err == nil {
			p = NewUniformRect(geom.Rect{Lo: lo, Hi: hi})
		}
	case tagConGauBall:
		ctr := d.point(dim)
		r := d.f64()
		s := d.f64()
		if d.err == nil {
			p = NewConGauBall(ctr, r, s)
		}
	case tagGaussRect:
		lo := d.point(dim)
		hi := d.point(dim)
		mu := d.point(dim)
		sigma := d.point(dim)
		if d.err == nil {
			p = NewGaussRect(geom.Rect{Lo: lo, Hi: hi}, mu, sigma)
		}
	case tagExpoRect:
		lo := d.point(dim)
		hi := d.point(dim)
		rate := d.point(dim)
		if d.err == nil {
			p = NewExpoRect(geom.Rect{Lo: lo, Hi: hi}, rate)
		}
	case tagHistogramRect:
		lo := d.point(dim)
		hi := d.point(dim)
		bins := make([]int, dim)
		for i := range bins {
			bins[i] = int(d.u16())
		}
		n := int(d.u16())
		mass := d.point(n)
		if d.err == nil {
			want := 1
			for _, b := range bins {
				want *= b
			}
			if want != n || !normalized(mass) {
				return nil, fmt.Errorf("%w: %d cell masses for bins %v, or not normalized", ErrCorruptPDF, n, bins)
			}
			p = histogramOf(geom.Rect{Lo: lo, Hi: hi}, bins, mass)
		}
	case tagPolygon:
		nv := int(d.u16())
		if d.err == nil && (dim != 2 || nv < 3 || nv > 1024) {
			return nil, fmt.Errorf("%w: %d-D polygon with %d vertices", ErrCorruptPDF, dim, nv)
		}
		verts := make([]geom.Point, 0, nv)
		for i := 0; i < nv; i++ {
			verts = append(verts, d.point(2))
		}
		if d.err == nil {
			poly := NewUniformPolygon(verts)
			if !slices.EqualFunc(poly.verts, verts, geom.Point.Equal) {
				return nil, fmt.Errorf("%w: polygon vertices not their own hull", ErrCorruptPDF)
			}
			p = poly
		}
	case tagMixture:
		nc := int(d.u16())
		if d.err == nil && (nc < 1 || nc > 256) {
			return nil, fmt.Errorf("%w: mixture with %d components", ErrCorruptPDF, nc)
		}
		comps := make([]PDF, 0, nc)
		weights := make([]float64, 0, nc)
		for i := 0; i < nc; i++ {
			w := d.f64()
			ln := int(d.u16())
			if d.err != nil {
				return nil, d.err
			}
			if d.off+ln > len(d.buf) {
				return nil, ErrCorruptPDF
			}
			sub, err := Decode(d.buf[d.off : d.off+ln])
			if err != nil {
				return nil, err
			}
			d.off += ln
			comps = append(comps, sub)
			weights = append(weights, w)
		}
		if d.err == nil {
			if !normalized(weights) {
				return nil, fmt.Errorf("%w: mixture weights %v not normalized", ErrCorruptPDF, weights)
			}
			p = mixtureOf(comps, weights)
		}
	default:
		return nil, fmt.Errorf("%w: unknown tag %d", ErrCorruptPDF, tag)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(buf) {
		return nil, fmt.Errorf("%w: %d bytes after the pdf", ErrCorruptPDF, len(buf)-d.off)
	}
	return p, nil
}

// normalized reports whether w is what NewMixture and NewHistogramRect
// keep: finite, non-negative weights summing to 1 up to rounding.
func normalized(w []float64) bool {
	var sum float64
	for _, v := range w {
		if !(v >= 0 && v <= 1) {
			return false
		}
		sum += v
	}
	return math.Abs(sum-1) <= 1e-12
}
