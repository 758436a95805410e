// Command batch demonstrates the parallel batch query engine: one shared
// Tree serving a fan-out of probabilistic range queries, with the
// aggregated cost metrics the paper reports per query.
package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/uncertain"
)

func main() {
	ct, err := uncertain.NewTree(uncertain.Config{Dimensions: 2})
	if err != nil {
		panic(err)
	}
	defer ct.Close()

	// 2000 delivery vehicles with uncertain GPS positions.
	rng := rand.New(rand.NewSource(7))
	for id := int64(0); id < 2000; id++ {
		center := uncertain.Pt(rng.Float64()*10000, rng.Float64()*10000)
		if err := ct.Insert(id, uncertain.UniformCircle(center, 30)); err != nil {
			panic(err)
		}
	}

	// 64 dispatch zones to poll: "which vehicles are in this zone with
	// probability ≥ 0.7?"
	queries := make([]uncertain.RangeQuery, 64)
	for i := range queries {
		cx, cy := rng.Float64()*10000, rng.Float64()*10000
		queries[i] = uncertain.RangeQuery{
			Rect: uncertain.Box(uncertain.Pt(cx-300, cy-300), uncertain.Pt(cx+300, cy+300)),
			Prob: 0.7,
		}
	}

	// The whole batch runs under a deadline: if it passes, the in-flight
	// queries stop mid-traversal and SearchBatch returns what completed
	// with ctx.Err().
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	eng := uncertain.NewQueryEngine(ct, uncertain.EngineOptions{Workers: 4})
	results, stats, err := eng.SearchBatch(ctx, queries)
	if err != nil {
		panic(err)
	}

	total := 0
	for _, r := range results {
		total += len(r)
	}
	q := float64(stats.Queries)
	fmt.Printf("%d queries on %d workers in %v (%.0f q/s)\n",
		stats.Queries, stats.Workers, stats.WallTime.Round(1000), q/stats.WallTime.Seconds())
	fmt.Printf("%d vehicles matched; %d validated without probability computation\n",
		total, stats.Validated)
	fmt.Printf("avg %.1f node accesses and %.1f prob computations per query\n",
		float64(stats.NodeAccesses)/q, float64(stats.ProbComputations)/q)
}
