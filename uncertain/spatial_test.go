package uncertain

import (
	"context"
	"errors"
	"path/filepath"
	"sort"
	"testing"
)

// spatialCfg is the config the spatial-sharding tests share.
func spatialCfg() Config {
	return Config{Dimensions: 2}
}

// TestSpatialShardedEquivalenceAndPruning: a spatially-sharded index must
// answer every query identically to a single tree over the same objects,
// and must actually skip shards on localized queries — the root boxes every
// commit records are what it prunes on.
func TestSpatialShardedEquivalenceAndPruning(t *testing.T) {
	objects := shardedFixtureObjects(600, 5)
	queries := shardedFixtureQueries(60, 6)
	// Add localized queries that touch a single slab of the [0,1000]²
	// domain — the ones pruning must fire on.
	for i := 0; i < 20; i++ {
		cx := 60 + float64(i)*10
		queries = append(queries, RangeQuery{
			Rect: Box(Pt(cx-30, 400), Pt(cx+30, 520)),
			Prob: 0.3,
		})
	}

	single, err := NewConcurrentTree(Config{Dimensions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	if err := single.BulkLoad(objects); err != nil {
		t.Fatal(err)
	}

	st, err := NewSpatialShardedTree(4, spatialCfg(), Box(Pt(0, 0), Pt(1000, 1000)))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.BulkLoad(objects); err != nil {
		t.Fatal(err)
	}
	if got := st.Len(); got != len(objects) {
		t.Fatalf("Len = %d, want %d", got, len(objects))
	}

	totalPruned := 0
	for i, q := range queries {
		want, _, err := single.Search(context.Background(), q.Rect, q.Prob)
		if err != nil {
			t.Fatal(err)
		}
		got, stats, err := st.Search(context.Background(), q.Rect, q.Prob)
		if err != nil {
			t.Fatal(err)
		}
		w := sortByID(want)
		if len(got) != len(w) {
			t.Fatalf("query %d: %d results, single tree %d", i, len(got), len(w))
		}
		for j := range got {
			if got[j] != w[j] {
				t.Fatalf("query %d result %d: %+v, single tree %+v", i, j, got[j], w[j])
			}
		}
		totalPruned += stats.ShardsPruned
	}
	if totalPruned == 0 {
		t.Fatal("no shard was ever pruned on a spatially-partitioned index")
	}
}

// TestSpatialShardedNNEquivalence: the distance-ranked, bound-pruned
// sharded NN query must reproduce a single tree's answers exactly.
func TestSpatialShardedNNEquivalence(t *testing.T) {
	objects := shardedFixtureObjects(500, 7)

	single, err := NewConcurrentTree(Config{Dimensions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	if err := single.BulkLoad(objects); err != nil {
		t.Fatal(err)
	}

	st, err := NewSpatialShardedTree(4, spatialCfg(), Box(Pt(0, 0), Pt(1000, 1000)))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.BulkLoad(objects); err != nil {
		t.Fatal(err)
	}

	pruned := 0
	for i := 0; i < 25; i++ {
		q := Pt(float64(i)*40+20, 500)
		for _, k := range []int{1, 5, 10} {
			want, _, err := single.NearestNeighbors(context.Background(), q, k)
			if err != nil {
				t.Fatal(err)
			}
			got, stats, err := st.NearestNeighbors(context.Background(), q, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("q=%v k=%d: %d neighbors, single tree %d", q, k, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("q=%v k=%d neighbor %d: %+v, single tree %+v", q, k, j, got[j], want[j])
				}
			}
			pruned += stats.ShardsPruned
		}
	}
	if pruned == 0 {
		t.Fatal("NN shard pruning never fired on edge-of-domain query points")
	}
}

// TestSpatialRoutingLifecycle: a batch can delete its own pending insert and
// move an object to another slab by deleting and reinserting its ID; a
// bare-ID delete then finds each object in its new shard.
func TestSpatialRoutingLifecycle(t *testing.T) {
	st, err := NewSpatialShardedTree(4, spatialCfg(), fixtureDomain)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	if err := st.Insert(1, west); err != nil {
		t.Fatal(err)
	}
	if i := st.owner(1); i != 0 {
		t.Fatalf("object 1 is in shard %d, want the first slab's 0", i)
	}

	// Within one batch: delete a pending insert, and move object 1 from the
	// first slab to the last.
	err = st.WriteBatch(func(w BatchWriter) error {
		for _, op := range []func() error{
			func() error { return w.Insert(1000, west) },
			func() error { return w.Insert(1001, east) },
			func() error { return w.Delete(1000) },
			func() error { return w.Delete(1) },
			func() error { return w.Insert(1, east) },
		} {
			if err := op(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Len(); got != 2 {
		t.Fatalf("Len after batch = %d, want 2", got)
	}
	if i := st.owner(1); i != 3 {
		t.Fatalf("moved object 1 is in shard %d, want the last slab's 3", i)
	}
	for _, id := range []int64{1001, 1} {
		if err := st.Delete(id); err != nil {
			t.Fatalf("Delete(%d) after the batch: %v", id, err)
		}
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatalf("invariants after insert/delete sequence: %v", err)
	}
}

// TestShardedNNSortedContract: the merge contract says results arrive
// sorted by (distance, ID); verify on a sample.
func TestShardedNNSortedContract(t *testing.T) {
	st, err := NewSpatialShardedTree(3, spatialCfg(), Box(Pt(0, 0), Pt(1000, 1000)))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.BulkLoad(shardedFixtureObjects(300, 12)); err != nil {
		t.Fatal(err)
	}
	got, _, err := st.NearestNeighbors(context.Background(), Pt(500, 500), 20)
	if err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(got, func(a, b int) bool {
		if got[a].ExpectedDist != got[b].ExpectedDist {
			return got[a].ExpectedDist < got[b].ExpectedDist
		}
		return got[a].ID < got[b].ID
	}) {
		t.Fatal("ranked NN merge not sorted by (distance, ID)")
	}
}

// TestRootMBRAtEveryCommit: every commit records the root's boundary box at
// p = 0 without reading a page, through a history that splits the root,
// shrinks it again, rolls a batch back and empties the tree, and a reopened
// file reads the same box back off its root. CheckInvariants holds the
// recorded box to the p = 0 boundary of the root read afresh from its page,
// on the committed epoch and on the writer's working tree (a rollback must
// rewind the box with the root); here the box must also cover every live
// object and be zero exactly when the tree is empty.
func TestRootMBRAtEveryCommit(t *testing.T) {
	cfg := Config{Dimensions: 2, Path: filepath.Join(t.TempDir(), "root.utree")}
	tree, err := NewTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { tree.Close() }()
	objects := shardedFixtureObjects(240, 17)
	live := map[int64]PDF{}
	heights := map[int]bool{}
	check := func(label string) Rect {
		t.Helper()
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if err := tree.inner.CheckInvariants(); err != nil {
			t.Fatalf("%s, working tree: %v", label, err)
		}
		snap := tree.inner.Snapshot()
		defer snap.Close()
		box := snap.RootMBR()
		if len(live) == 0 {
			if box.Dim() != 0 {
				t.Fatalf("%s: empty tree records root box %v", label, box)
			}
			return box
		}
		if !box.IsValid() {
			t.Fatalf("%s: %d objects, root box %v", label, len(live), box)
		}
		for id, p := range live {
			m := p.MBR()
			for i := range m.Lo {
				if m.Lo[i] < box.Lo[i]-1e-7 || m.Hi[i] > box.Hi[i]+1e-7 {
					t.Fatalf("%s: object %d MBR %v outside root box %v", label, id, m, box)
				}
			}
		}
		heights[tree.Height()] = true
		return box
	}
	check("empty")

	// Single inserts, one commit each: the root leaf fills and splits.
	for id := int64(0); id < 160; id++ {
		if err := tree.Insert(id, objects[id]); err != nil {
			t.Fatal(err)
		}
		live[id] = objects[id]
		check("insert")
	}
	if !heights[2] {
		t.Fatalf("160 inserts never split the root (heights %v)", heights)
	}
	// A batch of inserts and deletes commits once.
	if err := tree.WriteBatch(func(w BatchWriter) error {
		for id := int64(160); id < 200; id++ {
			if err := w.Insert(id, objects[id]); err != nil {
				return err
			}
			if err := w.Delete(id - 160); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for id := int64(160); id < 200; id++ {
		live[id] = objects[id]
		delete(live, id-160)
	}
	before := check("batch")
	// A failed batch rolls its mutations back, the recorded box with them.
	if err := tree.WriteBatch(func(w BatchWriter) error {
		for id := int64(40); id < 120; id++ {
			if err := w.Delete(id); err != nil {
				return err
			}
		}
		return errTestRollback
	}); !errors.Is(err, errTestRollback) {
		t.Fatalf("failing batch: %v", err)
	}
	if got := check("rolled back"); !got.Equal(before) {
		t.Fatalf("rolled-back batch left root box %v, committed %v", got, before)
	}
	// Deletes down to a few objects shrink the root back to a leaf.
	for id := int64(40); id < 190; id++ {
		if err := tree.Delete(id); err != nil {
			t.Fatal(err)
		}
		delete(live, id)
		check("delete")
	}
	if tree.Height() != 1 {
		t.Fatalf("height %d with %d objects left, want the root shrunk to a leaf", tree.Height(), len(live))
	}
	before = check("shrunk")

	reopen := func() {
		t.Helper()
		if err := tree.Close(); err != nil {
			t.Fatal(err)
		}
		if tree, err = OpenTree(cfg.Path, cfg); err != nil {
			t.Fatal(err)
		}
	}
	reopen()
	if got := check("reopened"); !got.Equal(before) {
		t.Fatalf("reopened root box %v, recorded before close %v", got, before)
	}
	for id := range live {
		if err := tree.Delete(id); err != nil {
			t.Fatal(err)
		}
		delete(live, id)
		check("emptying")
	}
	reopen()
	check("reopened empty")
}

var errTestRollback = errors.New("test: roll the batch back")
