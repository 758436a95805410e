package core

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/pagefile"
)

// TestNodeCacheBoundAndLRU unit-tests the cache container itself: the
// entry-count bound holds under overflow, eviction is least-recently-used,
// invalidate drops entries, and the counters record each outcome.
func TestNodeCacheBoundAndLRU(t *testing.T) {
	nc := newNodeCache(3)
	if got := len(nc.shards); got != 1 {
		t.Fatalf("3-entry cache built %d shards, want 1 (shard floor)", got)
	}
	nodes := make([]*packedNode, 6)
	for i := range nodes {
		nodes[i] = &packedNode{page: pagefile.PageID(i)}
	}
	for i := 0; i < 3; i++ {
		nc.put(pagefile.PageID(i), nodes[i])
	}
	if nc.len() != 3 {
		t.Fatalf("len = %d after 3 puts, want 3", nc.len())
	}

	// Touch page 0 so page 1 is the LRU victim of the next overflow.
	if n, ok := nc.get(0); !ok || n != nodes[0] {
		t.Fatalf("get(0) = %v, %v", n, ok)
	}
	nc.put(3, nodes[3])
	if nc.len() != 3 {
		t.Fatalf("len = %d after overflow, want 3", nc.len())
	}
	if _, ok := nc.get(1); ok {
		t.Fatal("page 1 survived the overflow; LRU should have evicted it")
	}
	for _, id := range []pagefile.PageID{0, 2, 3} {
		if n, ok := nc.get(id); !ok || n != nodes[id] {
			t.Fatalf("page %d missing after overflow", id)
		}
	}

	// Re-putting a cached page keeps the first decode and just refreshes LRU.
	other := &packedNode{page: 2}
	nc.put(2, other)
	if n, _ := nc.get(2); n != nodes[2] {
		t.Fatal("re-put replaced the cached node; same PageID must keep the first decode")
	}

	nc.invalidate(2)
	if nc.len() != 2 {
		t.Fatalf("len = %d after invalidate, want 2", nc.len())
	}
	if _, ok := nc.get(2); ok {
		t.Fatal("get(2) hit after invalidate")
	}

	hits, misses := nc.stats()
	// Five gets hit (0 twice, 2 twice, 3); get(1) after the overflow and
	// get(2) after invalidate missed.
	if hits != 5 || misses != 2 {
		t.Fatalf("stats = %d hits / %d misses, want 5 / 2", hits, misses)
	}

	// A large capacity splits into the bounded shard count, and the bound
	// still holds across shards.
	big := newNodeCache(1024)
	if got := len(big.shards); got != ncMaxShards {
		t.Fatalf("1024-entry cache built %d shards, want %d", got, ncMaxShards)
	}
	for i := 0; i < 5000; i++ {
		big.put(pagefile.PageID(i), &packedNode{page: pagefile.PageID(i)})
	}
	if big.len() > 1024 {
		t.Fatalf("len = %d, bound 1024", big.len())
	}
}

// TestNodeCacheEvictsLeavesFirst: an overflowing shard evicts its least
// recently used leaf, whatever inner node is older, and an inner node —
// again least recently used first — only when it holds no leaf; a leaf put
// into a shard of inner nodes is the one evicted. Hits and misses count as
// before.
func TestNodeCacheEvictsLeavesFirst(t *testing.T) {
	nc := newNodeCache(4)
	if len(nc.shards) != 1 {
		t.Fatalf("4-entry cache built %d shards, want 1", len(nc.shards))
	}
	var ids []int // every page put so far
	put := func(id, level int) {
		ids = append(ids, id)
		nc.put(pagefile.PageID(id), &packedNode{page: pagefile.PageID(id), level: level})
	}
	var probes int64 // the misses holds adds
	// holds checks the cache holds exactly want: every other page put so
	// far misses — a miss leaves the LRU order alone — and the count is
	// want's.
	holds := func(step string, want ...int) {
		t.Helper()
		for _, id := range ids {
			if slices.Contains(want, id) {
				continue
			}
			probes++
			if _, ok := nc.get(pagefile.PageID(id)); ok {
				t.Fatalf("%s: page %d still cached", step, id)
			}
		}
		if nc.len() != len(want) {
			t.Fatalf("%s: %d cached, want %v", step, nc.len(), want)
		}
	}
	put(0, 1) // inner
	put(1, 2) // inner
	put(2, 0)
	put(3, 0)
	put(4, 0) // the oldest entry is inner node 0: leaf 2 goes instead
	holds("first overflow", 0, 1, 3, 4)
	if _, ok := nc.get(3); !ok {
		t.Fatal("get(3) missed")
	}
	put(5, 0) // leaf 3 was touched: leaf 4 goes
	holds("second overflow", 0, 1, 3, 5)
	put(6, 1) // an inner put evicts a leaf too
	holds("inner put", 0, 1, 5, 6)
	put(7, 1)
	holds("last leaf", 0, 1, 6, 7)
	if _, ok := nc.get(0); !ok {
		t.Fatal("get(0) missed")
	}
	put(8, 1) // no leaf left: the least recently used inner node, 1, goes
	holds("inner overflow", 0, 6, 7, 8)
	put(9, 0) // a leaf among inner nodes evicts itself
	holds("leaf among inner nodes", 0, 6, 7, 8)
	if _, ok := nc.get(9); ok {
		t.Fatal("get(9) hit an evicted leaf")
	}
	nc.invalidate(6)
	put(10, 0)
	holds("after invalidate", 0, 7, 8, 10)
	if hits, misses := nc.stats(); hits != 2 || misses != 1+probes {
		t.Fatalf("stats = %d hits / %d misses, want 2 / %d", hits, misses, 1+probes)
	}
}

// fetchLeaf is fetchNode's cache traffic for leaf id: a get, and on a miss
// a put. It reports whether the get hit.
func fetchLeaf(nc *nodeCache, id int) bool {
	pid := pagefile.PageID(id)
	if _, ok := nc.get(pid); ok {
		return true
	}
	nc.put(pid, &packedNode{page: pid})
	return false
}

// cachedIDs lists the pages a one-shard cache holds, without a get (which
// would count).
func cachedIDs(nc *nodeCache) []int {
	s := &nc.shards[0]
	s.mu.Lock()
	defer s.mu.Unlock()
	var ids []int
	for id := range s.entries {
		ids = append(ids, int(id))
	}
	slices.Sort(ids)
	return ids
}

// TestNodeCacheAdmissionResistsScans: two leaves fetched again and again
// survive a burst of one-touch leaves three times the cache's size — which
// flushes an LRU cache whole — because a one-touch leaf whose LRU victim
// was fetched more often evicts itself. The burst's leaves share no counter
// with a hot one (a leaf that did would count as hot: the table has one
// hash), which the test checks first.
func TestNodeCacheAdmissionResistsScans(t *testing.T) {
	nc := newNodeCache(4)
	for id := 0; id < 5; id++ {
		fetchLeaf(nc, id) // the fifth overflows: the shard starts counting
	}
	for range 20 {
		fetchLeaf(nc, 10)
		fetchLeaf(nc, 11)
	}
	s := &nc.shards[0]
	for id := 12; id < 24; id++ {
		if c := s.slot(pagefile.PageID(id)); c == s.slot(10) || c == s.slot(11) {
			t.Fatalf("burst leaf %d shares a hot leaf's counter", id)
		}
		fetchLeaf(nc, id)
	}
	// Hot leaves 10 and 11 stay; the two cold entries went to the burst's
	// first leaves, and every later one evicted itself.
	if got := cachedIDs(nc); !slices.Equal(got, []int{10, 11, 12, 13}) {
		t.Fatalf("after the burst the cache holds %v, want [10 11 12 13]", got)
	}
}

// TestNodeCacheAdmissionAges: a set of leaves hot now displaces one hot for
// far longer before, within one halving period. Hot set A fills a 4-entry
// shard and is fetched for hundreds of rounds, so without the halving its
// counters would sit at the 255 ceiling and set B, fetched round-robin after
// it, would need 4 × 255 = 1,020 gets to tie them. Halving every 640 gets
// (ncFreqAgeFactor × the 64-slot table) caps A's counters at 255 just
// before a halving and 127 just after, and B is in within those 640 gets
// wherever in the period it starts; A's rounds vary that offset.
func TestNodeCacheAdmissionAges(t *testing.T) {
	const period = ncFreqAgeFactor * ncFreqSlotsPerEntry * 4
	a, b := []int{20, 21, 22, 23}, []int{30, 31, 32, 33}
	for _, rounds := range []int{1000, 1020, 1050, 1080, 1110, 1140} {
		nc := newNodeCache(4)
		for id := 0; id < 5; id++ {
			fetchLeaf(nc, id) // the fifth overflows: the shard starts counting
		}
		for range rounds {
			for _, id := range a {
				fetchLeaf(nc, id)
			}
		}
		if got := cachedIDs(nc); !slices.Equal(got, a) {
			t.Fatalf("after %d rounds of set A the cache holds %v, want %v", rounds, got, a)
		}
		gets := 0
		for ; !slices.Equal(cachedIDs(nc), b); gets++ {
			if gets > period {
				t.Fatalf("after %d rounds of set A, set B is not cached after %d gets (one halving period): the cache holds %v",
					rounds, period, cachedIDs(nc))
			}
			fetchLeaf(nc, b[gets%len(b)])
		}
		t.Logf("after %d rounds of set A, set B displaced it in %d gets", rounds, gets)
	}
}

// TestNodeCacheNoTableUntilFull: a cache the tree fits in never allocates
// a frequency table; a shard's first overflow allocates its own, 16 slots
// per entry, and no other shard's. A get allocates nothing either way.
func TestNodeCacheNoTableUntilFull(t *testing.T) {
	nc := newNodeCache(64) // 16 shards of 4
	for id := 0; id < 64; id++ {
		fetchLeaf(nc, id)
	}
	for range 10 {
		for id := 0; id < 64; id++ {
			if !fetchLeaf(nc, id) {
				t.Fatalf("page %d missed in a cache it fits in", id)
			}
		}
	}
	for i := range nc.shards {
		if nc.shards[i].freq != nil {
			t.Fatalf("shard %d allocated a %d-slot table without overflowing", i, len(nc.shards[i].freq))
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { nc.get(7) }); allocs != 0 {
		t.Fatalf("a hit allocates %v times", allocs)
	}

	fetchLeaf(nc, 64) // shard 0's fifth page
	for i := range nc.shards {
		want := 0
		if i == 0 {
			want = ncFreqSlotsPerEntry * 4
		}
		if got := len(nc.shards[i].freq); got != want {
			t.Fatalf("after shard 0 overflowed, shard %d has %d counters, want %d", i, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { nc.get(64); nc.get(1000) }); allocs != 0 {
		t.Fatalf("a counted hit and miss allocate %v times", allocs)
	}
}

// TestNodeCacheCoherenceUnderCommits is the -race coherence hammer: with a
// tiny cache (constant eviction and re-decode churn) and a writer stream of
// commits and reclaims, every pinned snapshot must keep answering its
// queries identically for as long as it is held — a snapshot observing a
// node decoded from a newer epoch's reuse of the page would change answers.
func TestNodeCacheCoherenceUnderCommits(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	objs := makeObjects(300, 1000, rng)
	tree, err := New(Options{
		Dim:              2,
		NodeCacheEntries: 8, // tiny: force eviction + re-decode churn
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range objs {
		if err := tree.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}

	queries := make([]Query, 8)
	for i := range queries {
		queries[i] = Query{Rect: randomQueryRect(rng, 1000), Prob: 0.3}
	}

	const readers = 4
	const rounds = 6
	const requeries = 5
	var wg sync.WaitGroup
	errCh := make(chan error, readers)
	stop := make(chan struct{})

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				s := tree.Snapshot()
				q := queries[(r+round)%len(queries)]
				base, _, err := s.RangeQuery(context.Background(), q, QueryOpts{})
				if err != nil {
					s.Close()
					errCh <- err
					return
				}
				baseNN, _, err := s.NearestNeighbors(context.Background(), q.Rect.Lo, 3, QueryOpts{})
				if err != nil {
					s.Close()
					errCh <- err
					return
				}
				// Re-query the pinned epoch while the writer churns: any
				// drift means a node from a newer epoch leaked in.
				for i := 0; i < requeries; i++ {
					got, _, err := s.RangeQuery(context.Background(), q, QueryOpts{})
					if err != nil {
						s.Close()
						errCh <- err
						return
					}
					if len(got) != len(base) {
						s.Close()
						t.Errorf("reader %d round %d: snapshot answer drifted from %d to %d results",
							r, round, len(base), len(got))
						errCh <- nil
						return
					}
					for j := range got {
						if got[j] != base[j] {
							s.Close()
							t.Errorf("reader %d round %d: result %d drifted: %+v -> %+v",
								r, round, j, base[j], got[j])
							errCh <- nil
							return
						}
					}
					gotNN, _, err := s.NearestNeighbors(context.Background(), q.Rect.Lo, 3, QueryOpts{})
					if err != nil {
						s.Close()
						errCh <- err
						return
					}
					for j := range gotNN {
						if gotNN[j] != baseNN[j] {
							s.Close()
							t.Errorf("reader %d round %d: NN %d drifted: %+v -> %+v",
								r, round, j, baseNN[j], gotNN[j])
							errCh <- nil
							return
						}
					}
				}
				s.Close()
			}
		}(r)
	}

	// Writer: single-threaded commits and reclaims while the readers hold
	// their pins (Tree has one writer by contract; readers use snapshots).
	writerDone := make(chan error, 1)
	go func() {
		defer close(writerDone)
		wrng := rand.New(rand.NewSource(99))
		id := int64(10_000)
		for {
			select {
			case <-stop:
				return
			default:
			}
			o := makeObjects(1, 1000, wrng)[0]
			o.ID = id
			id++
			if err := tree.Insert(o); err != nil {
				writerDone <- err
				return
			}
			if id%3 == 0 {
				if err := tree.Delete(o.ID); err != nil {
					writerDone <- err
					return
				}
			}
			if err := tree.Commit(); err != nil {
				writerDone <- err
				return
			}
			if id%5 == 0 {
				if err := tree.Reclaim(); err != nil {
					writerDone <- err
					return
				}
			}
		}
	}()

	wg.Wait()
	close(stop)
	if err := <-writerDone; err != nil {
		t.Fatalf("writer: %v", err)
	}
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("reader: %v", err)
		}
	default:
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatalf("invariants after hammer: %v", err)
	}
	if hits, misses := tree.NodeCacheStats(); hits == 0 || misses == 0 {
		t.Fatalf("hammer exercised no cache churn: %d hits / %d misses", hits, misses)
	}
}

// TestPooledScratchNoAliasing is the -race aliasing check for the pooled
// per-query scratch: many goroutines draining the same query list through
// the pooled range and NN paths must each reproduce the serial baselines
// exactly — a scratch buffer leaking between in-flight queries would give
// the race detector an aliased write and the comparison a wrong answer.
func TestPooledScratchNoAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	objs := makeObjects(400, 1000, rng)
	tree, err := New(Options{
		Dim:       2,
		MCSamples: 200, // the NN estimate: exercises the pooled sampler + sample buffer
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range objs {
		if err := tree.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}

	type work struct {
		q  Query
		pt geom.Point
	}
	items := make([]work, 24)
	for i := range items {
		rq := randomQueryRect(rng, 1000)
		items[i] = work{q: Query{Rect: rq, Prob: 0.05 + rng.Float64()*0.7}, pt: rq.Lo}
	}

	snap := tree.Snapshot()
	defer snap.Close()
	ctx := context.Background()
	baseRange := make([][]Result, len(items))
	baseNN := make([][]NNResult, len(items))
	for i, it := range items {
		if baseRange[i], _, err = snap.RangeQuery(ctx, it.q, QueryOpts{}); err != nil {
			t.Fatal(err)
		}
		if baseNN[i], _, err = snap.NearestNeighbors(ctx, it.pt, 4, QueryOpts{}); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 8
	const passes = 3
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for p := 0; p < passes; p++ {
				// Stagger the start so goroutines interleave different
				// queries against the shared pools.
				for off := 0; off < len(items); off++ {
					i := (off + w) % len(items)
					got, _, err := snap.RangeQuery(ctx, items[i].q, QueryOpts{})
					if err != nil {
						t.Errorf("worker %d query %d: %v", w, i, err)
						return
					}
					if len(got) != len(baseRange[i]) {
						t.Errorf("worker %d query %d: %d results, serial %d", w, i, len(got), len(baseRange[i]))
						return
					}
					for j := range got {
						if got[j] != baseRange[i][j] {
							t.Errorf("worker %d query %d result %d: %+v, serial %+v", w, i, j, got[j], baseRange[i][j])
							return
						}
					}
					nn, _, err := snap.NearestNeighbors(ctx, items[i].pt, 4, QueryOpts{})
					if err != nil {
						t.Errorf("worker %d NN %d: %v", w, i, err)
						return
					}
					for j := range nn {
						if nn[j] != baseNN[i][j] {
							t.Errorf("worker %d NN %d result %d: %+v, serial %+v", w, i, j, nn[j], baseNN[i][j])
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
