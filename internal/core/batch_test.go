package core

import (
	"math/rand"
	"testing"

	"repro/internal/pagefile"
)

// TestBatchAmortizesRelocations pins down why commit granularity is the
// caller's choice: committing per operation shadow-relocates the whole root
// path every time, while one commit for the whole build relocates each node
// at most once — so the batched build must allocate far fewer pages for the
// same inserts.
func TestBatchAmortizesRelocations(t *testing.T) {
	build := func(batch bool) int64 {
		store := pagefile.NewMemStore()
		tree, err := New(Options{Dim: 2, ExactRefinement: true, Store: store})
		if err != nil {
			t.Fatal(err)
		}
		objs := makeObjects(200, 1000, rand.New(rand.NewSource(11)))
		for _, o := range objs {
			if err := tree.Insert(o); err != nil {
				t.Fatal(err)
			}
			if !batch {
				if err := tree.Commit(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := tree.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if tree.Len() != len(objs) {
			t.Fatalf("Len = %d, want %d", tree.Len(), len(objs))
		}
		_, _, allocs, _ := store.Stats().Snapshot()
		return allocs
	}
	perOp := build(false)
	batched := build(true)
	if batched*2 >= perOp {
		t.Fatalf("batched build allocated %d pages vs %d per-op — no relocation amortization", batched, perOp)
	}
}

// TestCommitRollbackVisibility: uncommitted mutations are invisible to the
// committed epoch, Rollback drops them, Commit publishes them.
func TestCommitRollbackVisibility(t *testing.T) {
	tree, err := New(Options{Dim: 2, ExactRefinement: true})
	if err != nil {
		t.Fatal(err)
	}
	objs := makeObjects(3, 1000, rand.New(rand.NewSource(3)))
	for _, o := range objs {
		if err := tree.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	if tree.CommittedLen() != 0 {
		t.Fatalf("uncommitted inserts visible: CommittedLen=%d", tree.CommittedLen())
	}
	if err := tree.Rollback(); err != nil {
		t.Fatal(err)
	}
	if tree.Len() != 0 {
		t.Fatalf("rollback left Len=%d", tree.Len())
	}
	for _, o := range objs {
		if err := tree.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	if tree.CommittedLen() != len(objs) {
		t.Fatalf("CommittedLen=%d after commit, want %d", tree.CommittedLen(), len(objs))
	}
}

// TestGCStatsCounters checks the extended GC surface end to end: deletes
// queue per-page tombstones, the counters move, and an idle reclaim drains
// everything.
func TestGCInfoCounters(t *testing.T) {
	tree, err := New(Options{Dim: 2, ExactRefinement: true})
	if err != nil {
		t.Fatal(err)
	}
	objs := makeObjects(60, 1000, rand.New(rand.NewSource(5)))
	for _, o := range objs {
		if err := tree.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	snap := tree.Snapshot() // blocks the drain
	for _, o := range objs[:20] {
		if err := tree.Delete(o.ID, o.PDF.MBR()); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	info := tree.GCInfo()
	if info.PendingEpochs == 0 || info.PendingTombstones != 20 {
		t.Fatalf("with a pin held: %+v, want pending epochs > 0, 20 tombstones", info)
	}
	snap.Close()
	if err := tree.Reclaim(); err != nil {
		t.Fatal(err)
	}
	info = tree.GCInfo()
	if info.PendingPages != 0 || info.PendingTombstones != 0 {
		t.Fatalf("after reclaim: %+v, want nothing pending", info)
	}
	if info.ReclaimedTombstones != 20 || info.ReclaimedPages == 0 {
		t.Fatalf("reclaim counters %+v, want 20 tombstones and some pages", info)
	}
}
