// Location-based services: the paper's motivating scenario (Section 1).
//
// Moving clients report their position only when they stray more than a
// distance threshold from their last report, so the server knows each
// client only up to a circular uncertainty region. The query "find the
// clients currently in the downtown area with probability ≥ 80%" is a
// probabilistic range search.
//
//	go run ./examples/lbs
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/uncertain"
)

const (
	cityExtent        = 10000.0 // city coordinates in meters
	distanceThreshold = 250.0   // report threshold = uncertainty radius
	numClients        = 5000
)

func main() {
	tree, err := uncertain.NewTree(uncertain.Config{Dimensions: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer tree.Close()

	// Clients cluster around a few hubs, as in a real city.
	rng := rand.New(rand.NewSource(2005))
	hubs := [][2]float64{{2500, 2500}, {7000, 3000}, {5000, 7500}, {8500, 8500}}
	for id := int64(0); id < numClients; id++ {
		hub := hubs[rng.Intn(len(hubs))]
		x := clamp(hub[0]+rng.NormFloat64()*1200, distanceThreshold, cityExtent-distanceThreshold)
		y := clamp(hub[1]+rng.NormFloat64()*1200, distanceThreshold, cityExtent-distanceThreshold)
		last := uncertain.Pt(x, y)
		if err := tree.Insert(id, uncertain.UniformCircle(last, distanceThreshold)); err != nil {
			log.Fatal(err)
		}
	}

	// Downtown is a 1.5 km square around the first hub.
	downtown := uncertain.Box(uncertain.Pt(1750, 1750), uncertain.Pt(3250, 3250))
	for _, pq := range []float64{0.5, 0.8, 0.95} {
		results, stats, err := tree.Search(context.Background(), downtown, pq)
		if err != nil {
			log.Fatal(err)
		}
		validated := 0
		for _, r := range results {
			if r.Validated {
				validated++
			}
		}
		fmt.Printf("clients downtown with P ≥ %.2f: %4d  "+
			"(%d/%d validated for free; %d node accesses, %d probability computations)\n",
			pq, len(results), validated, len(results), stats.NodeAccesses, stats.ProbComputations)
	}

	// A client reports a fresh position: delete + reinsert (fully dynamic).
	moved := int64(7)
	if err := tree.Delete(moved); err != nil {
		log.Fatal(err)
	}
	if err := tree.Insert(moved, uncertain.UniformCircle(uncertain.Pt(2500, 2500), distanceThreshold)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("client %d re-reported downtown; index now holds %d clients\n", moved, tree.Len())
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
