package uncertain

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"testing"
)

// fixtureDomain is the square the fixture objects and queries live in, and
// the domain the sharded tests split into slabs.
var fixtureDomain = Box(Pt(0, 0), Pt(1000, 1000))

// shardedFixtureObjects builds a deterministic population of uniform-circle
// objects (exact refinement capable).
func shardedFixtureObjects(n int, seed int64) map[int64]PDF {
	rng := rand.New(rand.NewSource(seed))
	objs := make(map[int64]PDF, n)
	for i := int64(0); i < int64(n); i++ {
		objs[i] = UniformCircle(
			Pt(rng.Float64()*1000, rng.Float64()*1000), 5+rng.Float64()*15)
	}
	return objs
}

func shardedFixtureQueries(n int, seed int64) []RangeQuery {
	rng := rand.New(rand.NewSource(seed))
	queries := make([]RangeQuery, n)
	for i := range queries {
		cx, cy := rng.Float64()*1000, rng.Float64()*1000
		half := 40 + rng.Float64()*120
		queries[i] = RangeQuery{
			Rect: Box(Pt(cx-half, cy-half), Pt(cx+half, cy+half)),
			Prob: 0.1 + 0.8*rng.Float64(),
		}
	}
	return queries
}

// cornerFixtureQueries returns, for objects 0 … n−1 of the fixture, a
// square that cuts the object at a corner at a threshold just under its
// probability: where the marginal bounds seldom decide it, since they read
// a ball's corner masses at the knots of its quadrant table, so refinement
// integrates it.
func cornerFixtureQueries(objs map[int64]PDF, n int) []RangeQuery {
	queries := make([]RangeQuery, n)
	for i := range queries {
		p := objs[int64(i)]
		m := p.MBR()
		w := m.Hi[0] - m.Lo[0]
		rect := Box(Pt(m.Lo[0]-w, m.Lo[1]-w), Pt(m.Lo[0]+0.55*w, m.Lo[1]+0.6*w))
		queries[i] = RangeQuery{Rect: rect, Prob: p.ExactProb(rect) - 0.001}
	}
	return queries
}

// latticeFixtureQueries returns side×side squares of the given half-width on
// a lattice over the fixture's domain, all at one threshold. A query that
// clips an object on a single axis is decided exactly on the object's
// marginal once its record is read; small squares clip the fixture's circles
// at their corners, on two axes, which the first-order bounds leave open.
func latticeFixtureQueries(side int, half, prob float64) []RangeQuery {
	queries := make([]RangeQuery, 0, side*side)
	step := 1000 / float64(side)
	for i := 0; i < side*side; i++ {
		x, y := step*(float64(i%side)+0.5), step*(float64(i/side)+0.5)
		queries = append(queries, RangeQuery{Rect: Box(Pt(x-half, y-half), Pt(x+half, y+half)), Prob: prob})
	}
	return queries
}

func sortByID(res []Result) []Result {
	out := make([]Result, len(res))
	copy(out, res)
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// searchInOrder runs every query and returns the raw (unsorted) results —
// on a single index their order is part of what must repeat.
func searchInOrder(t *testing.T, idx Index, queries []RangeQuery) [][]Result {
	t.Helper()
	out := make([][]Result, len(queries))
	for i, q := range queries {
		res, stats, err := idx.Search(context.Background(), q.Rect, q.Prob)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Results != len(res) {
			t.Fatalf("query %d: stats.Results = %d, len = %d", i, stats.Results, len(res))
		}
		out[i] = res
	}
	return out
}

func requireSameResults(t *testing.T, label string, want, got [][]Result) {
	t.Helper()
	for i := range want {
		if len(want[i]) != len(got[i]) {
			t.Fatalf("%s query %d: %d results, want %d", label, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if want[i][j] != got[i][j] {
				t.Fatalf("%s query %d result %d: %+v, want %+v",
					label, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestShardedSingleEquivalence is the sharding correctness contract: the
// same objects and the same queries must yield identical result sets —
// IDs, probabilities (exact refinement), validated flags — whether the
// index is a single tree or sharded 1/2/4 ways.
func TestShardedSingleEquivalence(t *testing.T) {
	objects := shardedFixtureObjects(600, 3)
	queries := shardedFixtureQueries(80, 4)

	single, err := NewConcurrentTree(Config{Dimensions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	if err := single.BulkLoad(objects); err != nil {
		t.Fatal(err)
	}
	want := make([][]Result, len(queries))
	for i, q := range queries {
		res, _, err := single.Search(context.Background(), q.Rect, q.Prob)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = sortByID(res)
	}

	nonEmpty := 0
	for _, w := range want {
		if len(w) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		t.Fatal("degenerate workload: every query returned nothing")
	}

	for _, shards := range []int{1, 2, 4} {
		st, err := NewSpatialShardedTree(shards, Config{Dimensions: 2}, fixtureDomain)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.BulkLoad(objects); err != nil {
			t.Fatal(err)
		}
		if got := st.Len(); got != len(objects) {
			t.Fatalf("%d shards: Len = %d, want %d", shards, got, len(objects))
		}
		if err := st.CheckInvariants(); err != nil {
			t.Fatalf("%d shards: invariants after BulkLoad: %v", shards, err)
		}
		for i, q := range queries {
			res, stats, err := st.Search(context.Background(), q.Rect, q.Prob)
			if err != nil {
				t.Fatal(err)
			}
			// ShardedTree.Search returns ID-sorted results already; sortByID
			// would mask a violation of that documented contract.
			if !sort.SliceIsSorted(res, func(a, b int) bool { return res[a].ID < res[b].ID }) {
				t.Fatalf("%d shards query %d: results not sorted by ID", shards, i)
			}
			if len(res) != len(want[i]) {
				t.Fatalf("%d shards query %d: %d results, single tree %d",
					shards, i, len(res), len(want[i]))
			}
			for j := range res {
				if res[j] != want[i][j] {
					t.Fatalf("%d shards query %d result %d: %+v, single tree %+v",
						shards, i, j, res[j], want[i][j])
				}
			}
			if stats.Results != len(res) {
				t.Fatalf("%d shards query %d: merged stats.Results = %d, want %d",
					shards, i, stats.Results, len(res))
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardedNNMatchesSingle: the per-shard top-k merge must reproduce the
// single tree's k-NN answers (expected distances are deterministic per
// object) — with the shards ranked by their root boxes, which every commit
// records, so the nearest goes first and its k-th distance bounds the rest.
func TestShardedNNMatchesSingle(t *testing.T) {
	objects := shardedFixtureObjects(400, 7)

	single, err := NewConcurrentTree(Config{Dimensions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	if err := single.BulkLoad(objects); err != nil {
		t.Fatal(err)
	}

	st, err := NewSpatialShardedTree(4, Config{Dimensions: 2}, fixtureDomain)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.BulkLoad(objects); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 24; i++ {
		q := Pt(rng.Float64()*1000, rng.Float64()*1000)
		k := 1 + rng.Intn(8)
		want, _, err := single.NearestNeighbors(context.Background(), q, k)
		if err != nil {
			t.Fatal(err)
		}
		got, stats, err := st.NearestNeighbors(context.Background(), q, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: %d neighbors, want %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("query %d neighbor %d: %+v, single tree %+v", i, j, got[j], want[j])
			}
		}
		if stats.NodeAccesses == 0 || stats.DistanceComps == 0 {
			t.Fatalf("query %d: shard NN stats not merged: %+v", i, stats)
		}
	}
}

// TestShardedRoutingAndDelete: inserts spread over the slabs, a bare-ID
// delete finds the shard holding the object, and a missing or already
// deleted ID is ErrNotFound.
func TestShardedRoutingAndDelete(t *testing.T) {
	st, err := NewSpatialShardedTree(4, Config{Dimensions: 2}, fixtureDomain)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	const n = 200
	for i := int64(0); i < n; i++ {
		if err := st.Insert(i, UniformCircle(Pt(float64(i%20)*50, float64(i/20)*50), 8)); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	for i, sh := range st.shards {
		if sh.Len() != n/4 {
			t.Fatalf("shard %d holds %d of %d objects spread evenly over its slab", i, sh.Len(), n)
		}
	}
	for i := int64(0); i < n; i += 2 {
		if err := st.Delete(i); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.Len(); got != n/2 {
		t.Fatalf("Len after deletes = %d, want %d", got, n/2)
	}
	for _, id := range []int64{0, 999} {
		if err := st.Delete(id); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Delete(%d) = %v, want ErrNotFound", id, err)
		}
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatalf("invariants after insert/delete sequence: %v", err)
	}
}

// TestShardedDuplicateInsertRace: two writers insert one ID at once, into
// different slabs — two plain Inserts, or an Insert against a WriteBatch
// that inserts it. Exactly one wins and the other gets ErrDuplicateID, Len
// grows by one, and Delete(id) leaves no copy behind in any shard.
func TestShardedDuplicateInsertRace(t *testing.T) {
	st, err := NewSpatialShardedTree(2, Config{Dimensions: 2}, fixtureDomain)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rounds := 200
	if testing.Short() {
		rounds = 50
	}
	west, east := UniformCircle(Pt(100, 500), 8), UniformCircle(Pt(900, 500), 8)
	for r := 0; r < rounds; r++ {
		id := int64(r)
		writers := []func() error{
			func() error { return st.Insert(id, west) },
			func() error { return st.Insert(id, east) },
		}
		if r%2 == 1 {
			writers[1] = func() error {
				return st.WriteBatch(func(w BatchWriter) error { return w.Insert(id, east) })
			}
		}
		start := make(chan struct{})
		errs := make([]error, len(writers))
		var wg sync.WaitGroup
		for i, write := range writers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				errs[i] = write()
			}()
		}
		close(start)
		wg.Wait()
		won := 0
		for _, err := range errs {
			switch {
			case err == nil:
				won++
			case !errors.Is(err, ErrDuplicateID):
				t.Fatalf("round %d: %v", r, err)
			}
		}
		if won != 1 || st.Len() != 1 {
			t.Fatalf("round %d: %d of two racing inserts of ID %d won, Len %d", r, won, id, st.Len())
		}
		if err := st.Delete(id); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if err := st.Delete(id); !errors.Is(err, ErrNotFound) || st.Len() != 0 || st.owner(id) >= 0 {
			t.Fatalf("round %d: after Delete(%d) a second Delete is %v, Len %d, owner shard %d", r, id, err, st.Len(), st.owner(id))
		}
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedFileBacked: Config.Path fans out to one file per shard.
func TestShardedFileBacked(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "lb.utree")
	st, err := NewSpatialShardedTree(2, Config{Dimensions: 2, Path: base}, fixtureDomain)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 50; i++ {
		if err := st.Insert(i, UniformCircle(Pt(float64(i)*20, float64(i)*20), 5)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		path := fmt.Sprintf("%s.shard%d", base, i)
		sh, err := OpenTree(path, Config{})
		if err != nil {
			t.Fatalf("shard file %s: %v", path, err)
		}
		if sh.Len() != 25 {
			t.Fatalf("shard file %s holds %d objects, want its slab's 25", path, sh.Len())
		}
		if err := sh.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardedConfigErrors: invalid shard counts, domains and shard configs
// fail up front, without leaking half-built shards.
func TestShardedConfigErrors(t *testing.T) {
	if _, err := NewSpatialShardedTree(0, Config{Dimensions: 2}, fixtureDomain); err == nil {
		t.Fatal("zero shards accepted")
	}
	if _, err := NewSpatialShardedTree(4, Config{}, fixtureDomain); err == nil {
		t.Fatal("zero dimensions accepted")
	}
	if _, err := NewSpatialShardedTree(4, Config{Dimensions: 2}, Box(Pt(5, 0), Pt(5, 1000))); err == nil {
		t.Fatal("domain without extent on dimension 0 accepted")
	}
}

// TestShardedMixedOpsStress runs concurrent writers and readers over a
// ShardedTree (run with -race), then asserts every shard's invariants.
func TestShardedMixedOpsStress(t *testing.T) {
	st, err := NewSpatialShardedTree(4, Config{Dimensions: 2}, fixtureDomain)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := int64(0); i < 200; i++ {
		if err := st.Insert(i, UniformCircle(Pt(float64(i%20)*50, float64(i/20)*50), 8)); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers*3)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			base := int64(1000 + w*1000)
			for i := 0; i < 40; i++ {
				id := base + int64(i)
				if err := st.Insert(id, UniformCircle(
					Pt(rng.Float64()*1000, rng.Float64()*1000), 8)); err != nil {
					errs <- fmt.Errorf("worker %d insert: %w", w, err)
					return
				}
				if _, _, err := st.Search(context.Background(), Box(Pt(0, 0), Pt(500, 500)), 0.5); err != nil {
					errs <- fmt.Errorf("worker %d search: %w", w, err)
					return
				}
				if i%3 == 0 {
					if err := st.Delete(id); err != nil {
						errs <- fmt.Errorf("worker %d delete: %w", w, err)
						return
					}
				}
				if i%7 == 0 {
					if _, _, err := st.NearestNeighbors(context.Background(), Pt(rng.Float64()*1000, rng.Float64()*1000), 3); err != nil {
						errs <- fmt.Errorf("worker %d nn: %w", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	want := 200 + workers*40 - workers*14 // 40 inserts, ⌈40/3⌉ = 14 deletes each
	if got := st.Len(); got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatalf("shard invariants violated after stress: %v", err)
	}
}
