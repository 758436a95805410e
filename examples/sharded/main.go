// Command sharded demonstrates the sharded scatter-gather index: a fleet
// tracker ingesting a live stream of position updates while dashboards
// query continuously. The ShardedTree splits the city into four slabs: a
// position update locks only the slab the vehicle is in, and each query
// fans out concurrently to the slabs its zone touches, each on a pinned
// snapshot; the others are skipped on their root boxes.
package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/uncertain"
)

func main() {
	city := uncertain.Box(uncertain.Pt(0, 0), uncertain.Pt(10000, 10000))
	st, err := uncertain.NewSpatialShardedTree(4, uncertain.Config{
		Dimensions:      2,
		ExactRefinement: true,
	}, city)
	if err != nil {
		panic(err)
	}
	defer st.Close()

	// 4000 vehicles with uncertain GPS positions, bulk-loaded and split
	// across the slabs by position.
	rng := rand.New(rand.NewSource(7))
	fleet := make(map[int64]uncertain.PDF, 4000)
	for id := int64(0); id < 4000; id++ {
		center := uncertain.Pt(rng.Float64()*10000, rng.Float64()*10000)
		fleet[id] = uncertain.UniformCircle(center, 30)
	}
	if err := st.BulkLoad(fleet); err != nil {
		panic(err)
	}
	fmt.Printf("loaded %d vehicles across %d shards\n", st.Len(), st.Shards())

	// A live update stream: vehicles re-report positions while we query.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		wrng := rand.New(rand.NewSource(99))
		for id := int64(100000); ; id++ {
			select {
			case <-stop:
				return
			default:
			}
			center := uncertain.Pt(wrng.Float64()*10000, wrng.Float64()*10000)
			if err := st.Insert(id, uncertain.UniformCircle(center, 30)); err != nil {
				panic(err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Dashboards poll zones: "vehicles in this zone with probability ≥ 0.7".
	start := time.Now()
	const polls = 40
	found := 0
	var agg uncertain.Stats
	for i := 0; i < polls; i++ {
		cx, cy := rng.Float64()*10000, rng.Float64()*10000
		zone := uncertain.Box(uncertain.Pt(cx-400, cy-400), uncertain.Pt(cx+400, cy+400))
		results, stats, err := st.Search(context.Background(), zone, 0.7)
		if err != nil {
			panic(err)
		}
		found += len(results)
		agg.Add(stats)
	}
	elapsed := time.Since(start)
	close(stop)
	<-done

	fmt.Printf("%d zone polls in %v (%.0f q/s) while ingesting updates\n",
		polls, elapsed.Round(time.Millisecond), float64(polls)/elapsed.Seconds())
	fmt.Printf("%d vehicles matched; %d of %d validated straight from PCRs\n",
		found, agg.Validated, agg.Results)
	fmt.Printf("%.1f node accesses per poll, summed across shards; %d shard visits skipped\n",
		float64(agg.NodeAccesses)/polls, agg.ShardsPruned)
}
