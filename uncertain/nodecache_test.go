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

// TestCacheCounters drives the two read counters and the sharded sums. On a
// committed tree a Delete reads its root-to-leaf path from the store, so
// CacheStats' misses grow by at least the height; inside one WriteBatch a
// second mutation of the leaf the first one wrote reads that leaf's path
// back from the batch's dirty pages, a hit. A Search moves neither counter
// (its node reads are NodeCacheStats'). On a ShardedTree each getter is the
// sum of its shards', and Shards is the count it was built with.
func TestCacheCounters(t *testing.T) {
	objs := dataset.Generate(dataset.Config{Name: dataset.LB, Scale: 0.05, Seed: 42})
	pdfs := make(map[int64]PDF, len(objs))
	for _, o := range objs {
		pdfs[o.ID] = o.PDF
	}
	zone := Box(Pt(4000, 4000), Pt(6000, 6000))
	ctx := context.Background()

	tree, err := NewTree(Config{Dimensions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	if err := tree.BulkLoad(pdfs); err != nil {
		t.Fatal(err)
	}
	if tree.Height() < 2 {
		t.Fatalf("fixture: height %d, want an intermediate level", tree.Height())
	}
	hits, misses := tree.CacheStats()
	if err := tree.Delete(objs[0].ID); err != nil {
		t.Fatal(err)
	}
	h, m := tree.CacheStats()
	if m-misses < int64(tree.Height()) {
		t.Errorf("a Delete read %d node pages from the store, want at least the height %d", m-misses, tree.Height())
	}
	hits, misses = h, m
	if err := tree.WriteBatch(func(w BatchWriter) error {
		if err := w.Insert(objs[0].ID, objs[0].PDF); err != nil {
			return err
		}
		return w.Delete(objs[0].ID)
	}); err != nil {
		t.Fatal(err)
	}
	if h, _ := tree.CacheStats(); h == hits {
		t.Errorf("a second mutation of one leaf in a WriteBatch read no dirty page: hits stay %d", h)
	}
	hits, misses = tree.CacheStats()
	nh, nm := tree.NodeCacheStats()
	if _, _, err := tree.Search(ctx, zone, 0.5); err != nil {
		t.Fatal(err)
	}
	if h, m := tree.CacheStats(); h != hits || m != misses {
		t.Errorf("a Search moved the writer's counters: hits %d → %d, misses %d → %d", hits, h, misses, m)
	}
	if h, m := tree.NodeCacheStats(); h+m <= nh+nm {
		t.Errorf("a Search looked up no node in the cache: %d → %d lookups", nh+nm, h+m)
	}

	const k = 3
	st, err := NewSpatialShardedTree(k, Config{Dimensions: 2}, Box(Pt(0, 0), Pt(10000, 10000)))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Shards() != k {
		t.Fatalf("Shards() = %d, want %d", st.Shards(), k)
	}
	if err := st.BulkLoad(pdfs); err != nil {
		t.Fatal(err)
	}
	for _, o := range objs[:10] {
		if err := st.Delete(o.ID); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := st.Search(ctx, zone, 0.5); err != nil {
		t.Fatal(err)
	}
	var sum [4]int64
	for _, sh := range st.shards {
		h, m := sh.CacheStats()
		nh, nm := sh.NodeCacheStats()
		sum[0], sum[1], sum[2], sum[3] = sum[0]+h, sum[1]+m, sum[2]+nh, sum[3]+nm
	}
	h, m = st.CacheStats()
	nh, nm = st.NodeCacheStats()
	if got := [4]int64{h, m, nh, nm}; got != sum || got[1] == 0 || got[2]+got[3] == 0 {
		t.Errorf("sharded CacheStats and NodeCacheStats %v, the shards' sums %v; want equal and non-zero misses and lookups", got, sum)
	}
}
