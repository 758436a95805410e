package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/geom"
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
		tree, err := New(Options{Dim: 2, Store: store})
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
	tree, err := New(Options{Dim: 2})
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

// pageLog is a MemStore that, while armed, notes which pages are read and
// written.
type pageLog struct {
	*pagefile.MemStore
	armed         bool
	read, written map[pagefile.PageID]bool
}

func (s *pageLog) Read(id pagefile.PageID, buf []byte) error {
	if s.armed {
		s.read[id] = true
	}
	return s.MemStore.Read(id, buf)
}

func (s *pageLog) Write(id pagefile.PageID, buf []byte) error {
	if s.armed {
		s.written[id] = true
	}
	return s.MemStore.Write(id, buf)
}

// TestGCInfoCounters: a delete stops at the leaf. Twenty deletes committed
// in one epoch behind a pinned snapshot read no data page but their own
// records' and write none, and the pin's release and the reclaim that
// follows neither read nor write one; what they leave for the
// collector is retired node pages, which the counters report; and the pinned
// snapshot goes on reading the deleted objects' records for as long as it
// lives, because nothing was done to them.
func TestGCInfoCounters(t *testing.T) {
	store := &pageLog{MemStore: pagefile.NewMemStore(), read: map[pagefile.PageID]bool{}, written: map[pagefile.PageID]bool{}}
	tree, err := New(Options{Dim: 2, Store: store, Persist: true})
	if err != nil {
		t.Fatal(err)
	}
	objs := makeObjects(400, 1000, rand.New(rand.NewSource(5)))
	for _, o := range objs {
		if err := tree.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	var doomed []Object // every twentieth: spread over the data pages
	for i := 0; i < len(objs); i += 20 {
		doomed = append(doomed, objs[i])
	}
	// Data pages: what the tree references that is neither node nor metadata.
	dataPages, err := tree.ReachablePages()
	if err != nil {
		t.Fatal(err)
	}
	delete(dataPages, tree.MetaPage())
	addrs := map[int64]DataAddr{}
	if err := tree.walk(tree.rootPage, tree.rootLevel, func(n *node) error {
		delete(dataPages, n.page)
		for i := range n.entries {
			if n.leaf() {
				addrs[n.entries[i].id] = n.entries[i].addr
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	onPages := map[pagefile.PageID]bool{}
	for _, o := range doomed {
		onPages[addrs[o.ID].Page] = true
	}
	if len(doomed) != 20 || len(onPages) < 3 {
		t.Fatalf("fixture: %d victims on %d of %d data pages, want 20 on several", len(doomed), len(onPages), len(dataPages))
	}
	dataIn := func(log map[pagefile.PageID]bool) []pagefile.PageID {
		var ids []pagefile.PageID
		for id := range log {
			if dataPages[id] {
				ids = append(ids, id)
			}
		}
		return ids
	}

	snap := tree.Snapshot() // blocks the drain
	before := tree.GCInfo()
	q := Query{Rect: geom.NewRect(geom.Point{100, 100}, geom.Point{800, 800}), Prob: 0.5}
	want, wantStats, err := snap.RangeQuery(context.Background(), q, QueryOpts{})
	if err != nil || wantStats.RefinementIOs == 0 {
		t.Fatalf("fixture query: %d refinement IOs, err %v", wantStats.RefinementIOs, err)
	}

	store.armed = true
	for _, o := range doomed {
		if err := tree.Delete(o.ID); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	store.armed = false
	if ids := dataIn(store.written); len(ids) != 0 {
		t.Fatalf("20 deletes and their commit wrote data pages %v", ids)
	}
	for _, id := range dataIn(store.read) {
		if !onPages[id] {
			t.Fatalf("20 deletes read data page %d, which holds none of their records", id)
		}
	}
	info := tree.GCInfo()
	if info.PendingEpochs == 0 || info.PendingPages == 0 || info.ReclaimedPages != before.ReclaimedPages {
		t.Fatalf("with a pin held: %+v, want retired pages pending and none reclaimed", info)
	}

	// The pinned epoch still holds every object and refines them.
	got, _, err := snap.RangeQuery(context.Background(), q, QueryOpts{})
	if err != nil || len(got) != len(want) {
		t.Fatalf("pinned query after the deletes: %d results, err %v; want %d", len(got), err, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("pinned result %d = %+v, was %+v before the deletes", i, got[i], want[i])
		}
	}
	for _, o := range doomed {
		rec, legacy, err := tree.readRecord(addrs[o.ID])
		if err != nil {
			t.Fatalf("record of deleted object %d: %v", o.ID, err)
		}
		if obj, err := decodeObject(rec, legacy, snap.st.shapes); err != nil || obj.ID != o.ID {
			t.Fatalf("record of deleted object %d decodes as %d, err %v", o.ID, obj.ID, err)
		}
	}
	if err := snap.CheckRecords(); err != nil {
		t.Fatalf("pinned epoch's records: %v", err)
	}

	clear(store.read)
	store.armed = true
	snap.Close()
	if err := tree.Reclaim(); err != nil {
		t.Fatal(err)
	}
	store.armed = false
	if ids := append(dataIn(store.read), dataIn(store.written)...); len(ids) != 0 {
		t.Fatalf("reclaim touched data pages %v", ids)
	}
	after := tree.GCInfo()
	if after.PendingPages != 0 || after.PendingEpochs != 0 || after.ReclaimedPages-info.ReclaimedPages != int64(info.PendingPages) {
		t.Fatalf("after reclaim: %+v, want the %d pending pages reclaimed", after, info.PendingPages)
	}
	if tree.Len() != len(objs)-len(doomed) {
		t.Fatalf("Len = %d, want %d", tree.Len(), len(objs)-len(doomed))
	}
	final := tree.Snapshot()
	defer final.Close()
	if err := final.CheckRecords(); err != nil {
		t.Fatalf("records after reclaim: %v", err)
	}
}
