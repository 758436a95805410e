// Meteorology: the paper's second motivating scenario (Section 1).
//
// A network of stations reports (temperature, humidity, UV index) every 30
// minutes; between reports the true atmospheric state drifts, modelled by a
// Gaussian around the last reading truncated to each sensor's physical
// range. The query "identify the regions whose temperature is in [75, 80]F,
// humidity in [40, 60]% and UV index in [4.5, 6] with at least 70%
// likelihood" is a 3D probabilistic range search.
//
//	go run ./examples/meteo3d
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/uncertain"
)

const numStations = 3000

func main() {
	tree, err := uncertain.NewTree(uncertain.Config{Dimensions: 3})
	if err != nil {
		log.Fatal(err)
	}
	defer tree.Close()

	rng := rand.New(rand.NewSource(30))
	type reading struct{ temp, hum, uv float64 }
	readings := make(map[int64]reading, numStations)
	for id := int64(0); id < numStations; id++ {
		r := reading{
			temp: 40 + rng.Float64()*60, // °F
			hum:  10 + rng.Float64()*85, // %
			uv:   rng.Float64() * 11,    // index
		}
		readings[id] = r
		// Uncertainty since the last report: σ = (1.2°F, 3%, 0.25) with the
		// region capped at ±3σ.
		sig := []float64{1.2, 3, 0.25}
		region := uncertain.Box(
			uncertain.Pt(r.temp-3*sig[0], r.hum-3*sig[1], r.uv-3*sig[2]),
			uncertain.Pt(r.temp+3*sig[0], r.hum+3*sig[1], r.uv+3*sig[2]),
		)
		mean := uncertain.Pt(r.temp, r.hum, r.uv)
		if err := tree.Insert(id, uncertain.TruncatedGaussianBox(region, mean, sig)); err != nil {
			log.Fatal(err)
		}
	}

	// The paper's query, verbatim: temperature [75, 80], humidity [40, 60],
	// UV [4.5, 6] — swept over likelihood thresholds.
	q := uncertain.Box(uncertain.Pt(75, 40, 4.5), uncertain.Pt(80, 60, 6))
	for _, pq := range []float64{0.3, 0.5, 0.7} {
		results, stats, err := tree.Search(context.Background(), q, pq)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("regions matching T∈[75,80] H∈[40,60] UV∈[4.5,6] with P ≥ %.1f: %d\n", pq, len(results))
		for i, r := range results {
			if i == 5 {
				fmt.Printf("  … and %d more\n", len(results)-5)
				break
			}
			rd := readings[r.ID]
			fmt.Printf("  station %4d (last report T=%.1f H=%.0f UV=%.1f)\n", r.ID, rd.temp, rd.hum, rd.uv)
		}
		fmt.Printf("  cost: %d node accesses, %d of %d stations needed probability computation\n",
			stats.NodeAccesses, stats.ProbComputations, tree.Len())
	}
}
