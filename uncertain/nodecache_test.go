package uncertain

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/workload"
)

// TestNodeCacheFollowsTheData: range queries centred where the data is (the
// paper's §6 workload) come back to the leaves of the dense regions, and a
// node cache a fraction of the tree's size keeps those leaves. The CA
// dataset at scale 0.2 bulk-loads into about 100 pages against a 32-entry
// cache; 400 queries (side 500, thresholds cycling 0.3 / 0.6 / 0.9, centred
// on evenly spaced objects, in a seeded shuffle) run once to warm the cache
// and then three times more. The three replays' misses per query stay under
// the bound, and every answer equals that of a tree without a cache.
//
// Measured: 2.565 misses per query when each shard evicts its least
// recently used leaf whatever its count (the cache before frequency
// admission); 2.088 with it.
func TestNodeCacheFollowsTheData(t *testing.T) {
	const (
		queries = 400
		replays = 3
		bound   = 2.2 // misses per query
	)
	objs := dataset.Generate(dataset.Config{Name: dataset.CA, Scale: 0.2, Seed: 42})
	pdfs := make(map[int64]PDF, len(objs))
	for _, o := range objs {
		pdfs[o.ID] = o.PDF
	}
	build := func(cache int) *Tree {
		tree, err := NewTree(Config{Dimensions: 2, NodeCacheEntries: cache})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tree.Close() })
		if err := tree.BulkLoad(pdfs); err != nil {
			t.Fatal(err)
		}
		return tree
	}
	cached, plain := build(32), build(-1)

	type query struct {
		rect Rect
		prob float64
	}
	pq := []float64{0.3, 0.6, 0.9}
	qs := make([]query, queries)
	for i := range qs {
		c := objs[i*len(objs)/queries].PDF.Center()
		w := workload.New(workload.Config{QS: 500, PQ: pq[i%len(pq)], Count: 1, Domain: dataset.Domain, Centers: []geom.Point{c}})
		qs[i] = query{rect: w.Queries[0].Rect, prob: w.PQ}
	}
	rand.New(rand.NewSource(42)).Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })

	want := make([][]Result, len(qs))
	for i, q := range qs {
		var err error
		if want[i], _, err = plain.Search(context.Background(), q.rect, q.prob); err != nil {
			t.Fatal(err)
		}
	}
	pass := func() {
		t.Helper()
		for i, q := range qs {
			got, _, err := cached.Search(context.Background(), q.rect, q.prob)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want[i]) {
				t.Fatalf("query %d: %d results with the cache, %d without", i, len(got), len(want[i]))
			}
		}
	}
	pass() // warm-up
	_, m0 := cached.NodeCacheStats()
	for range replays {
		pass()
	}
	_, m1 := cached.NodeCacheStats()
	perQuery := float64(m1-m0) / (replays * queries)
	t.Logf("%.3f node-cache misses per query over %d replays", perQuery, replays)
	if perQuery > bound {
		t.Fatalf("%.3f node-cache misses per query, bound %.2f", perQuery, bound)
	}
}
