// Aircraft tracking: the paper's 3D evaluation dataset (Section 6), used
// here as an application. Aircraft fly segments between airports; their
// reported (x, y, altitude) positions carry spherical uncertainty of radius
// 125. An air-traffic question like "which aircraft are inside this
// airspace block with ≥ 60% probability?" is a 3D prob-range query.
//
//	go run ./examples/aircraft
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/dataset"
	"repro/uncertain"
)

func main() {
	// Generate a scaled-down Aircraft dataset exactly as the paper
	// describes (airports from a clustered map, aircraft on random
	// airport-pair segments, uniform altitudes).
	objs := dataset.Generate(dataset.Config{Name: dataset.Aircraft, Scale: 0.05, Seed: 7})

	tree, err := uncertain.NewTree(uncertain.Config{Dimensions: 3})
	if err != nil {
		log.Fatal(err)
	}
	defer tree.Close()
	for _, o := range objs {
		if err := tree.Insert(o.ID, o.PDF); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("indexed %d aircraft (3D, spherical uncertainty r=125)\n", tree.Len())

	// An airspace block: 2000×2000 horizontally, altitudes 3000–5000.
	block := uncertain.Box(
		uncertain.Pt(4000, 4000, 3000),
		uncertain.Pt(6000, 6000, 5000),
	)
	for _, pq := range []float64{0.3, 0.6, 0.9} {
		results, stats, err := tree.Search(context.Background(), block, pq)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("aircraft in block with P ≥ %.1f: %4d  (%d node accesses, %d probability computations, %d validated)\n",
			pq, len(results), stats.NodeAccesses, stats.ProbComputations, stats.Validated)
	}

	// Conflict probe around a specific aircraft: a tight cube centered on
	// its reported position, high threshold.
	target := objs[0]
	c := target.PDF.Center()
	probe := uncertain.Box(
		uncertain.Pt(c[0]-300, c[1]-300, c[2]-300),
		uncertain.Pt(c[0]+300, c[1]+300, c[2]+300),
	)
	results, _, err := tree.Search(context.Background(), probe, 0.95)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("aircraft almost surely within 300 of aircraft %d's report: %d\n",
		target.ID, len(results))
}
