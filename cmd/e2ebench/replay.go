package main

import (
	"math/rand"
	"time"

	"repro/internal/geom"
	"repro/internal/pagefile"
	"repro/internal/pcr"
	"repro/internal/updf"
)

// Replay sample (ISSUE): the compute layers are timed by calling their
// public functions over a fixed sample of the workload's own objects and
// queries, after the phases.
const (
	replayObjects = 500
	replayQueries = 200
	replayPages   = 500
	catalogSize   = 15 // core's default U-tree catalog
)

// replayCosts are unit costs of the compute layers; unit cost × the counts
// of a phase predicts the layer's share of it.
type replayCosts struct {
	verifyUS    float64 // pagefile: checksum-verify one page
	filterNS    float64 // pcr: FilterCFB on one leaf entry
	buildUS     float64 // pcr: Compute + FitOut + FitIn for one object (lp simplex inside)
	mcProbUS    float64 // updf: one Monte-Carlo appearance probability at the workload's n1
	exactProbUS float64 // updf: one exact appearance probability
	decodeNS    float64 // updf: decode one pdf record
}

func (b *bench) replay() replayCosts {
	objs := b.in.loaded
	if len(objs) > replayObjects {
		objs = objs[:replayObjects]
	}
	qs := b.in.ranges
	if len(qs) > replayQueries {
		qs = qs[:replayQueries]
	}
	var rc replayCosts

	cat := pcr.UniformCatalog(catalogSize)
	cache := pcr.NewQuantileCache()
	type cfbs struct{ out, in pcr.CFB }
	fitted := make([]cfbs, len(objs))
	start := time.Now()
	for i, o := range objs {
		p := pcr.Compute(o.PDF, cat, cache)
		fitted[i] = cfbs{pcr.FitOut(p), pcr.FitIn(p)}
	}
	rc.buildUS = float64(time.Since(start).Microseconds()) / float64(len(objs))

	outcomes := 0
	start = time.Now()
	for i, o := range objs {
		mbr := o.PDF.MBR()
		for _, q := range qs {
			outcomes += int(pcr.FilterCFB(fitted[i].out, fitted[i].in, cat, mbr, q.rect, q.pq))
		}
	}
	rc.filterNS = float64(time.Since(start).Nanoseconds()) / float64(len(objs)*len(qs))
	sink = outcomes

	// One probability per object, against a query of the workload's size
	// with a corner on the object's centre: the region straddles the
	// rectangle's boundary, as a refined candidate's does.
	rng := rand.New(rand.NewSource(b.o.seed))
	n1 := b.sp.config.MonteCarloSamples
	rects := make([]geom.Rect, len(objs))
	for i, o := range objs {
		c := o.PDF.Center().Clone()
		for k := range c {
			c[k] += b.sp.qs / 2
		}
		rects[i] = queryAt(c, b.sp.qs, 0.5).rect
	}
	var acc float64
	start = time.Now()
	for i, o := range objs {
		acc += updf.MonteCarloProb(o.PDF, rects[i], n1, rng)
	}
	rc.mcProbUS = float64(time.Since(start).Microseconds()) / float64(len(objs))
	start = time.Now()
	for i, o := range objs {
		acc += o.PDF.(updf.ExactProber).ExactProb(rects[i])
	}
	rc.exactProbUS = float64(time.Since(start).Microseconds()) / float64(len(objs))
	sinkF = acc

	recs := make([][]byte, 0, len(objs))
	for _, o := range objs {
		if rec, err := updf.Encode(o.PDF); err == nil {
			recs = append(recs, rec)
		}
	}
	start = time.Now()
	for _, rec := range recs {
		if _, err := updf.Decode(rec); err != nil {
			b.fail("replay: decode pdf record: %v", err)
		}
	}
	rc.decodeNS = ratio(float64(time.Since(start).Nanoseconds()), float64(len(recs)))

	verified := 0
	start = time.Now()
	for _, s := range b.bases {
		v, ok := s.(pagefile.PageVerifier)
		if !ok {
			continue
		}
		for id := 0; id < replayPages; id++ {
			// Free pages and ids past the end fail the probe; only live
			// pages are counted.
			if v.VerifyPage(pagefile.PageID(id)) == nil {
				verified++
			}
		}
	}
	rc.verifyUS = ratio(float64(time.Since(start).Microseconds()), float64(verified))
	return rc
}

// sink and sinkF keep the replay loops' results alive.
var (
	sink  int
	sinkF float64
)
