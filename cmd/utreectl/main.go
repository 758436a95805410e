// Command utreectl builds, inspects, verifies and queries file-backed
// U-tree indexes.
//
//	utreectl build  -index /tmp/lb.utree -dataset LB -scale 0.05
//	utreectl stats  -index /tmp/lb.utree
//	utreectl verify -index /tmp/lb.utree
//	utreectl query  -index /tmp/lb.utree -rect 1000,1000,2000,2000 -prob 0.7
//	utreectl nn     -index /tmp/lb.utree -point 5000,5000 -k 5
//
// Every page carries a CRC32-C trailer verified on each read; a file in
// the unchecksummed v1 page format is refused (rebuild it from its data).
// verify checks the tree's invariants and records, then scrubs every
// reachable page and prints each corrupt one; it exits non-zero on any
// failure.
//
// Every subcommand accepts -buffer (the write buffer's bound in dirty pages).
//
// query and nn additionally take the per-query options of the
// context-first API: -timeout (wall-time deadline, ms; a timed-out query
// reports its partial results), -mc-samples (Monte Carlo samples of a k-NN
// expected distance; a range query's refinement is exact) and -limit
// (top-N early cut), e.g.
// `utreectl query -timeout 5 -limit 10 ...`.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/uncertain"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	var (
		index  = fs.String("index", "", "index file path (required)")
		ds     = fs.String("dataset", "LB", "dataset for build: LB|CA|Aircraft")
		scale  = fs.Float64("scale", 0.05, "dataset scale for build")
		rect   = fs.String("rect", "", "query rectangle lo1,lo2[,lo3],hi1,hi2[,hi3]")
		prob   = fs.Float64("prob", 0.5, "query probability threshold")
		point  = fs.String("point", "", "query point for nn: x1,x2[,x3]")
		k      = fs.Int("k", 5, "neighbor count for nn")
		buffer = fs.Int("buffer", 0, "write buffer bound in dirty pages (0 = default 256)")

		// Per-query options for query and nn.
		timeoutMS = fs.Float64("timeout", 0, "per-query wall-time deadline, milliseconds (0 = none); a timed-out query prints its partial results")
		mcSamples = fs.Int("mc-samples", 0, "Monte Carlo samples of each k-NN expected distance (0 = index default; range refinement is exact)")
		limit     = fs.Int("limit", 0, "stop after this many results (top-N early cut; 0 = unlimited)")
	)
	fs.Parse(os.Args[2:])
	if *index == "" {
		fmt.Fprintln(os.Stderr, "missing -index")
		usage()
	}
	if *buffer < 0 {
		fmt.Fprintln(os.Stderr, "-buffer must be ≥ 0")
		usage()
	}
	if *timeoutMS < 0 || *mcSamples < 0 || *limit < 0 {
		fmt.Fprintln(os.Stderr, "-timeout, -mc-samples and -limit must be ≥ 0")
		usage()
	}
	cfg := uncertain.Config{BufferPages: *buffer}
	q := queryParams{
		timeout:   time.Duration(*timeoutMS * float64(time.Millisecond)),
		mcSamples: *mcSamples,
		limit:     *limit,
	}

	var err error
	switch cmd {
	case "build":
		err = build(*index, dataset.Name(*ds), *scale, cfg)
	case "stats":
		err = stats(*index, cfg)
	case "verify":
		err = verify(*index, cfg)
	case "query":
		err = query(*index, *rect, *prob, cfg, q)
	case "nn":
		err = nearest(*index, *point, *k, cfg, q)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "utreectl %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

// queryParams carries the per-query option flags of query and nn.
type queryParams struct {
	timeout   time.Duration
	mcSamples int
	limit     int
}

// context builds the query context (with deadline when -timeout is set)
// and the option list.
func (p queryParams) context() (context.Context, context.CancelFunc, []uncertain.QueryOption) {
	ctx, cancel := context.Background(), context.CancelFunc(func() {})
	if p.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, p.timeout)
	}
	var opts []uncertain.QueryOption
	if p.mcSamples > 0 {
		opts = append(opts, uncertain.WithMonteCarloSamples(p.mcSamples))
	}
	if p.limit > 0 {
		opts = append(opts, uncertain.WithLimit(p.limit))
	}
	return ctx, cancel, opts
}

// explainPartial reports an expected early stop (deadline, cancellation)
// as a notice and returns nil so the partial results print; any other
// error is returned as-is.
func explainPartial(err error, elapsed time.Duration) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		fmt.Printf("query cancelled after %v (%v); partial results follow\n", elapsed.Round(time.Microsecond), err)
		return nil
	default:
		return err
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: utreectl build|stats|verify|query|nn -index PATH [flags]")
	os.Exit(2)
}

func build(path string, name dataset.Name, scale float64, cfg uncertain.Config) error {
	objs := dataset.Generate(dataset.Config{Name: name, Scale: scale})
	cfg.Dimensions = name.Dim()
	cfg.Path = path
	tree, err := uncertain.NewTree(cfg)
	if err != nil {
		return err
	}
	batch := make(map[int64]uncertain.PDF, len(objs))
	for _, o := range objs {
		batch[o.ID] = o.PDF
	}
	start := time.Now()
	if err := tree.BulkLoad(batch); err != nil {
		tree.Close()
		return err
	}
	elapsed := time.Since(start)
	if err := tree.Close(); err != nil {
		return err
	}
	fmt.Printf("bulk-loaded U-tree over %s (%d objects) in %v → %s\n",
		name, len(objs), elapsed.Round(time.Millisecond), path)
	return nil
}

func stats(path string, cfg uncertain.Config) error {
	tree, err := uncertain.OpenTree(path, cfg)
	if err != nil {
		return err
	}
	defer tree.Close()
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Printf("objects:   %d\n", tree.Len())
	fmt.Printf("height:    %d levels\n", tree.Height())
	fmt.Printf("file size: %d bytes\n", fi.Size())
	fmt.Printf("shapes:    %d in the shape table\n", tree.Shapes())
	gc := tree.GCInfo()
	fmt.Printf("epoch:     %d (%d snapshot pins)\n", gc.Epoch, gc.Pins)
	fmt.Printf("gc:        pending %d epochs / %d pages; reclaimed %d pages lifetime\n",
		gc.PendingEpochs, gc.PendingPages, gc.ReclaimedPages)
	nh, nm := tree.NodeCacheStats()
	if lookups := nh + nm; lookups > 0 {
		fmt.Printf("node cache: %.1f%% hit rate (%d hits / %d lookups)\n",
			100*float64(nh)/float64(lookups), nh, lookups)
	} else {
		fmt.Printf("node cache: no lookups\n")
	}
	return nil
}

func verify(path string, cfg uncertain.Config) error {
	tree, err := uncertain.OpenTree(path, cfg)
	if err != nil {
		return err
	}
	defer tree.Close()
	if err := tree.CheckRecords(); err != nil {
		return err
	}
	fmt.Println("ok: all structural, containment and shape invariants hold")
	verified, corrupt := tree.Scrub()
	if len(corrupt) > 0 {
		for _, err := range corrupt {
			fmt.Printf("  corrupt: %v\n", err)
		}
		return fmt.Errorf("scrub: %d corrupt pages (%d verified clean)", len(corrupt), verified)
	}
	fmt.Printf("ok: %d reachable pages scrubbed, none corrupt\n", verified)
	return nil
}

func query(path, rectSpec string, prob float64, cfg uncertain.Config, qp queryParams) error {
	if rectSpec == "" {
		return fmt.Errorf("missing -rect")
	}
	parts := strings.Split(rectSpec, ",")
	if len(parts)%2 != 0 {
		return fmt.Errorf("rect needs an even number of coordinates, got %d", len(parts))
	}
	d := len(parts) / 2
	coords := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return fmt.Errorf("coordinate %d: %w", i, err)
		}
		coords[i] = v
	}
	rq := geom.NewRect(coords[:d], coords[d:])

	tree, err := uncertain.OpenTree(path, cfg)
	if err != nil {
		return err
	}
	defer tree.Close()
	ctx, cancel, opts := qp.context()
	defer cancel()
	start := time.Now()
	results, s, err := tree.Search(ctx, rq, prob, opts...)
	if err := explainPartial(err, time.Since(start)); err != nil {
		return err
	}
	fmt.Printf("%d results in %v (node accesses %d, candidates %d, prob computations %d, validated %d, refinement IOs %d)\n",
		len(results), time.Since(start).Round(time.Microsecond),
		s.NodeAccesses, s.Candidates, s.ProbComputations, s.Validated, s.RefinementIOs)
	if s.ProbFilterPruned > 0 {
		fmt.Printf("prob filter: %d candidates pruned before refinement\n", s.ProbFilterPruned)
	}
	if n := s.MarginalValidated + s.MarginalPruned; n > 0 {
		fmt.Printf("refinement: %d of %d candidates decided on their marginals (%d validated, %d pruned), %d integrated\n",
			n, s.Candidates, s.MarginalValidated, s.MarginalPruned, s.ProbComputations)
		fmt.Printf("refinement: %d of %d candidates decided before their record was read\n", s.ShapeDecided, s.Candidates)
	}
	for i, r := range results {
		if i == 20 {
			fmt.Printf("  … %d more\n", len(results)-20)
			break
		}
		if r.Validated {
			fmt.Printf("  object %d (validated without probability computation)\n", r.ID)
		} else {
			fmt.Printf("  object %d (P_app = %.4f)\n", r.ID, r.Prob)
		}
	}
	return nil
}

func nearest(path, pointSpec string, k int, cfg uncertain.Config, qp queryParams) error {
	if pointSpec == "" {
		return fmt.Errorf("missing -point")
	}
	parts := strings.Split(pointSpec, ",")
	q := make(geom.Point, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return fmt.Errorf("coordinate %d: %w", i, err)
		}
		q[i] = v
	}
	tree, err := uncertain.OpenTree(path, cfg)
	if err != nil {
		return err
	}
	defer tree.Close()
	ctx, cancel, opts := qp.context()
	defer cancel()
	start := time.Now()
	nns, s, err := tree.NearestNeighbors(ctx, q, k, opts...)
	if err := explainPartial(err, time.Since(start)); err != nil {
		return err
	}
	fmt.Printf("%d nearest neighbors of %v in %v (node accesses %d, distance computations %d)\n",
		len(nns), q, time.Since(start).Round(time.Microsecond), s.NodeAccesses, s.DistanceComps)
	for rank, n := range nns {
		fmt.Printf("  #%d object %d  E[dist] = %.2f\n", rank+1, n.ID, n.ExpectedDist)
	}
	return nil
}
