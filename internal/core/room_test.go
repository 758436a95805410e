package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
)

// TestBulkLoadDatasetsLeaveRoom: at the scales the benchmark workloads load
// — LB ×0.25, CA ×0.2, Aircraft ×0.1 — every leaf STR writes has room for
// one more entry of its largest form, as runCutter.cut promises where a run
// can spare it, and an insert into any of 100 random leaves, each undone
// before the next, reads and writes its leaf and the path above it and
// nothing else: no split, no forced reinsertion.
func TestBulkLoadDatasetsLeaveRoom(t *testing.T) {
	for _, c := range []struct {
		name  dataset.Name
		scale float64
	}{{dataset.LB, 0.25}, {dataset.CA, 0.2}, {dataset.Aircraft, 0.1}} {
		objs := dataset.Generate(dataset.Config{Name: c.name, Scale: c.scale, Seed: 42})
		tree, err := core.New(core.Options{Dim: c.name.Dim()})
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.BulkLoad(objs); err != nil {
			t.Fatal(err)
		}
		leaves, spare, err := core.LeafFill(tree)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range spare {
			if s < 0 {
				t.Fatalf("%s ×%g: leaf %d of %d holds %d entries with %d bytes short of one more", c.name, c.scale, i, len(leaves), len(leaves[i]), -s)
			}
		}
		pages, err := tree.IndexPages()
		if err != nil {
			t.Fatal(err)
		}
		byID := make(map[int64]core.Object, len(objs))
		for _, o := range objs {
			byID[o.ID] = o
		}
		rng := rand.New(rand.NewSource(49))
		for k, l := range rng.Perm(len(leaves))[:100] {
			// The pdf of one of the leaf's objects, so the insert lands
			// where that object lives.
			o := byID[leaves[l][rng.Intn(len(leaves[l]))]]
			o.ID = int64(len(objs) + k)
			hits0, misses0 := tree.CacheStats()
			writes0 := tree.NodeWrites()
			if err := tree.Insert(o); err != nil {
				t.Fatal(err)
			}
			hits1, misses1 := tree.CacheStats()
			if r := hits1 + misses1 - hits0 - misses0; r != int64(tree.Height()) {
				t.Fatalf("%s ×%g: an insert beside leaf %d's objects read %d nodes in a tree of height %d, want one a level", c.name, c.scale, l, r, tree.Height())
			}
			if w := tree.NodeWrites() - writes0; w != int64(tree.Height()) {
				t.Fatalf("%s ×%g: an insert beside leaf %d's objects wrote %d nodes in a tree of height %d: it split or reinserted", c.name, c.scale, l, w, tree.Height())
			}
			if err := tree.Delete(o.ID); err != nil {
				t.Fatal(err)
			}
		}
		if got, err := tree.IndexPages(); err != nil || got != pages {
			t.Fatalf("%s ×%g: IndexPages %d → %d (%v) after 100 inserts, each undone", c.name, c.scale, pages, got, err)
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}
