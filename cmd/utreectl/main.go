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
// query and nn additionally take -timeout (wall-time deadline, ms; a
// timed-out query reports its partial results) and -limit (top-N early
// cut), e.g. `utreectl query -timeout 5 -limit 10 ...`. nn takes
// -mc-samples, the Monte Carlo samples of each expected distance
// (Config.MonteCarloSamples); a range query's refinement is exact.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/uncertain"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "utreectl: %v\n", err)
		if errors.Is(err, errUsage) {
			fmt.Fprintln(os.Stderr, "usage: utreectl build|stats|verify|query|nn -index PATH [flags]")
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// errUsage marks a malformed command line.
var errUsage = errors.New("usage")

// run executes one subcommand, args[0], printing its report to w.
func run(args []string, w io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf("%w: missing subcommand", errUsage)
	}
	cmd := args[0]
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	var (
		index = fs.String("index", "", "index file path (required)")
		ds    = fs.String("dataset", "LB", "dataset for build: LB|CA|Aircraft")
		scale = fs.Float64("scale", 0.05, "dataset scale for build")
		rect  = fs.String("rect", "", "query rectangle lo1,lo2[,lo3],hi1,hi2[,hi3]")
		prob  = fs.Float64("prob", 0.5, "query probability threshold")
		point = fs.String("point", "", "query point for nn: x1,x2[,x3]")
		k     = fs.Int("k", 5, "neighbor count for nn")

		timeoutMS = fs.Float64("timeout", 0, "per-query wall-time deadline, milliseconds (0 = none); a timed-out query prints its partial results")
		mcSamples = fs.Int("mc-samples", 0, "Monte Carlo samples of each k-NN expected distance (0 = index default; range refinement is exact)")
		limit     = fs.Int("limit", 0, "stop after this many results (top-N early cut; 0 = unlimited)")
	)
	if err := fs.Parse(args[1:]); err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	switch {
	case *index == "":
		return fmt.Errorf("%w: missing -index", errUsage)
	case *timeoutMS < 0 || *mcSamples < 0 || *limit < 0:
		return fmt.Errorf("%w: -timeout, -mc-samples and -limit must be ≥ 0", errUsage)
	}
	cfg := uncertain.Config{MonteCarloSamples: *mcSamples}
	q := queryParams{
		timeout: time.Duration(*timeoutMS * float64(time.Millisecond)),
		limit:   *limit,
	}

	var err error
	switch cmd {
	case "build":
		err = build(w, *index, dataset.Name(*ds), *scale, cfg)
	case "stats":
		err = stats(w, *index, cfg)
	case "verify":
		err = verify(w, *index, cfg)
	case "query":
		err = query(w, *index, *rect, *prob, cfg, q)
	case "nn":
		err = nearest(w, *index, *point, *k, cfg, q)
	default:
		return fmt.Errorf("%w: unknown subcommand %q", errUsage, cmd)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", cmd, err)
	}
	return nil
}

// queryParams carries the per-query option flags of query and nn.
type queryParams struct {
	timeout time.Duration
	limit   int
}

// context builds the query context (with deadline when -timeout is set)
// and the option list.
func (p queryParams) context() (context.Context, context.CancelFunc, []uncertain.QueryOption) {
	ctx, cancel := context.Background(), context.CancelFunc(func() {})
	if p.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, p.timeout)
	}
	var opts []uncertain.QueryOption
	if p.limit > 0 {
		opts = append(opts, uncertain.WithLimit(p.limit))
	}
	return ctx, cancel, opts
}

// explainPartial reports an expected early stop (deadline, cancellation)
// as a notice and returns nil so the partial results print; any other
// error is returned as-is.
func explainPartial(w io.Writer, err error, elapsed time.Duration) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		fmt.Fprintf(w, "query cancelled after %v (%v); partial results follow\n", elapsed.Round(time.Microsecond), err)
		return nil
	default:
		return err
	}
}

func build(w io.Writer, path string, name dataset.Name, scale float64, cfg uncertain.Config) error {
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
	fmt.Fprintf(w, "bulk-loaded U-tree over %s (%d objects) in %v → %s\n",
		name, len(objs), elapsed.Round(time.Millisecond), path)
	return nil
}

func stats(w io.Writer, path string, cfg uncertain.Config) error {
	tree, err := uncertain.OpenTree(path, cfg)
	if err != nil {
		return err
	}
	defer tree.Close()
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "objects:   %d\n", tree.Len())
	fmt.Fprintf(w, "height:    %d levels\n", tree.Height())
	fmt.Fprintf(w, "file size: %d bytes\n", fi.Size())
	fmt.Fprintf(w, "shapes:    %d in the shape table\n", tree.Shapes())
	gc := tree.GCInfo()
	fmt.Fprintf(w, "epoch:     %d (%d snapshot pins)\n", gc.Epoch, gc.Pins)
	fmt.Fprintf(w, "gc:        pending %d epochs / %d pages; reclaimed %d pages lifetime\n",
		gc.PendingEpochs, gc.PendingPages, gc.ReclaimedPages)
	nh, nm := tree.NodeCacheStats()
	if lookups := nh + nm; lookups > 0 {
		fmt.Fprintf(w, "node cache: %.1f%% hit rate (%d hits / %d lookups)\n",
			100*float64(nh)/float64(lookups), nh, lookups)
	} else {
		fmt.Fprintf(w, "node cache: no lookups\n")
	}
	return nil
}

func verify(w io.Writer, path string, cfg uncertain.Config) error {
	tree, err := uncertain.OpenTree(path, cfg)
	if err != nil {
		return err
	}
	defer tree.Close()
	if err := tree.CheckRecords(); err != nil {
		return err
	}
	fmt.Fprintln(w, "ok: all structural, containment and shape invariants hold")
	verified, corrupt := tree.Scrub()
	if len(corrupt) > 0 {
		for _, err := range corrupt {
			fmt.Fprintf(w, "  corrupt: %v\n", err)
		}
		return fmt.Errorf("scrub: %d corrupt pages (%d verified clean)", len(corrupt), verified)
	}
	fmt.Fprintf(w, "ok: %d reachable pages scrubbed, none corrupt\n", verified)
	return nil
}

func query(w io.Writer, path, rectSpec string, prob float64, cfg uncertain.Config, qp queryParams) error {
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
	if err := explainPartial(w, err, time.Since(start)); err != nil {
		return err
	}
	fmt.Fprintf(w, "%d results in %v (node accesses %d, candidates %d, prob computations %d, validated %d, refinement IOs %d)\n",
		len(results), time.Since(start).Round(time.Microsecond),
		s.NodeAccesses, s.Candidates, s.ProbComputations, s.Validated, s.RefinementIOs)
	if s.ProbFilterPruned > 0 {
		fmt.Fprintf(w, "prob filter: %d candidates pruned before refinement\n", s.ProbFilterPruned)
	}
	if n := s.MarginalValidated + s.MarginalPruned; n > 0 {
		fmt.Fprintf(w, "refinement: %d of %d candidates decided on their marginals (%d validated, %d pruned), %d integrated\n",
			n, s.Candidates, s.MarginalValidated, s.MarginalPruned, s.ProbComputations)
		fmt.Fprintf(w, "refinement: %d of %d candidates decided before their record was read\n", s.ShapeDecided, s.Candidates)
	}
	for i, r := range results {
		if i == 20 {
			fmt.Fprintf(w, "  … %d more\n", len(results)-20)
			break
		}
		if r.Validated {
			fmt.Fprintf(w, "  object %d (validated without probability computation)\n", r.ID)
		} else {
			fmt.Fprintf(w, "  object %d (P_app = %.4f)\n", r.ID, r.Prob)
		}
	}
	return nil
}

func nearest(w io.Writer, path, pointSpec string, k int, cfg uncertain.Config, qp queryParams) error {
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
	if err := explainPartial(w, err, time.Since(start)); err != nil {
		return err
	}
	fmt.Fprintf(w, "%d nearest neighbors of %v in %v (node accesses %d, distance computations %d)\n",
		len(nns), q, time.Since(start).Round(time.Microsecond), s.NodeAccesses, s.DistanceComps)
	for rank, n := range nns {
		fmt.Fprintf(w, "  #%d object %d  E[dist] = %.2f\n", rank+1, n.ID, n.ExpectedDist)
	}
	return nil
}
