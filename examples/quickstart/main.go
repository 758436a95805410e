// Quickstart: build a U-tree over a handful of uncertain objects and run
// probabilistic range queries against it.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/uncertain"
)

func main() {
	// A 2D index; refinement computes exact probabilities, so the output
	// is deterministic.
	tree, err := uncertain.NewTree(uncertain.Config{Dimensions: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer tree.Close()

	// Three moving clients whose exact positions are unknown: each lies
	// uniformly in a circle of radius 30 around its last report.
	clients := map[int64]uncertain.Point{
		1: uncertain.Pt(100, 100),
		2: uncertain.Pt(200, 140),
		3: uncertain.Pt(400, 380),
	}
	for id, last := range clients {
		if err := tree.Insert(id, uncertain.UniformCircle(last, 30)); err != nil {
			log.Fatal(err)
		}
	}

	// One sensor with Gaussian noise truncated to its calibration box.
	sensorBox := uncertain.Box(uncertain.Pt(150, 300), uncertain.Pt(250, 400))
	if err := tree.Insert(4, uncertain.TruncatedGaussianBox(
		sensorBox, uncertain.Pt(200, 350), []float64{25, 25})); err != nil {
		log.Fatal(err)
	}

	// "Which objects are in the district [80,80]x[230,230] with at least
	// 60% probability?" Queries are context-first: this one carries a
	// 100 ms deadline — past it the traversal stops within about one page
	// latency and returns context.DeadlineExceeded with whatever partial
	// results it had (on this tiny in-memory tree it always finishes).
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	district := uncertain.Box(uncertain.Pt(80, 80), uncertain.Pt(230, 230))
	results, stats, err := tree.Search(ctx, district, 0.6)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("district query (pq = 0.6): %d result(s)\n", len(results))
	for _, r := range results {
		if r.Validated {
			fmt.Printf("  object %d — validated without computing its probability\n", r.ID)
		} else {
			fmt.Printf("  object %d — appearance probability %.3f\n", r.ID, r.Prob)
		}
	}
	fmt.Printf("cost: %d node accesses, %d probability computations\n",
		stats.NodeAccesses, stats.ProbComputations)

	// Tighten the threshold: a borderline object drops out. Per-query
	// options tune one query without touching the index — here a top-2
	// early cut.
	results, _, err = tree.Search(ctx, district, 0.95, uncertain.WithLimit(2))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("district query (pq = 0.95, limit 2): %d result(s)\n", len(results))
}
