package uncertain

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// This file is the snapshot-isolation contract: queries pin the epoch
// that was committed when they started — a query started before a delete
// still sees the deleted object, one started after does not — readers
// take no lock at all, and the epoch GC reclaims every retired page once
// the pins drain (no page leak, no goroutine leak). Run with -race: the
// whole point is readers and a writer on the same tree at once.

func snapshotFixture(t *testing.T, n int) (*ConcurrentTree, Rect) {
	t.Helper()
	ct, err := NewConcurrentTree(Config{Dimensions: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ct.Close() })
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < n; i++ {
		center := Pt(rng.Float64()*1000, rng.Float64()*1000)
		if err := ct.Insert(int64(i), UniformCircle(center, 10)); err != nil {
			t.Fatal(err)
		}
	}
	return ct, Box(Pt(-20, -20), Pt(1020, 1020)) // covers every object
}

func hasID(res []Result, id int64) bool {
	for _, r := range res {
		if r.ID == id {
			return true
		}
	}
	return false
}

// TestSnapshotSeesPreDeleteState is the deterministic core of the
// contract: a snapshot pinned before a delete keeps returning the deleted
// object; queries after the delete do not; and the snapshot's view is
// stable across arbitrarily many later writes.
func TestSnapshotSeesPreDeleteState(t *testing.T) {
	ct, all := snapshotFixture(t, 300)
	ctx := context.Background()
	const victim = int64(123)

	snap := ct.Snapshot()
	defer snap.Close()
	preEpoch := snap.Epoch()

	if err := ct.Delete(victim); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ { // more epochs of churn on top
		if err := ct.Insert(int64(10_000+i), UniformCircle(Pt(rand.Float64()*1000, rand.Float64()*1000), 10)); err != nil {
			t.Fatal(err)
		}
	}

	res, _, err := snap.Search(ctx, all, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !hasID(res, victim) {
		t.Fatalf("snapshot at epoch %d lost object %d deleted after the pin", preEpoch, victim)
	}
	if snap.Len() != 300 {
		t.Fatalf("snapshot Len = %d, want 300", snap.Len())
	}
	if err := snap.CheckInvariants(); err != nil {
		t.Fatalf("pinned epoch invariants: %v", err)
	}

	after, _, err := ct.Search(ctx, all, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if hasID(after, victim) {
		t.Fatalf("post-delete query still returns object %d", victim)
	}
	if ct.Epoch() <= preEpoch {
		t.Fatalf("epoch did not advance: %d -> %d", preEpoch, ct.Epoch())
	}

	// NN through the snapshot also sees the victim's record (refinement
	// reads a data record the delete left where it was).
	nn, _, err := snap.NearestNeighbors(ctx, Pt(500, 500), 300)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range nn {
		if n.ID == victim {
			found = true
		}
	}
	if !found {
		t.Fatalf("snapshot NN lost deleted object %d", victim)
	}
}

// TestSnapshotReclamation: once every snapshot is closed, a writer-side
// flush frees all retired pages — no page leak.
func TestSnapshotReclamation(t *testing.T) {
	ct, all := snapshotFixture(t, 200)
	ctx := context.Background()

	snap := ct.Snapshot()
	for i := int64(0); i < 40; i++ {
		if err := ct.Delete(i); err != nil {
			t.Fatal(err)
		}
	}
	if gc := ct.GCInfo(); gc.Pins != 1 || gc.PendingPages == 0 {
		t.Fatalf("with a live pin: pins=%d pending=%d, want pins=1 and pending>0", gc.Pins, gc.PendingPages)
	}
	if _, _, err := snap.Search(ctx, all, 0.5); err != nil {
		t.Fatal(err)
	}
	snap.Close()
	snap.Close() // idempotent

	if err := ct.Flush(); err != nil { // writer-side reclaim
		t.Fatal(err)
	}
	if gc := ct.GCInfo(); gc.Pins != 0 || gc.PendingPages != 0 {
		t.Fatalf("after close+flush: pins=%d pending=%d, want 0/0", gc.Pins, gc.PendingPages)
	}
	if err := ct.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotReaderWriterHammer races many lock-free readers against a
// committing writer: every query must return internally consistent
// results (exact refinement: base objects outside the churn range are
// always present; churned IDs may or may not be, depending on the pinned
// epoch), invariants must hold on every pinned epoch, and after the storm
// drains there must be no goroutine leak and no retained garbage.
func TestSnapshotReaderWriterHammer(t *testing.T) {
	if testing.Short() {
		t.Skip("hammer test skipped in -short")
	}
	before := runtime.NumGoroutine()

	ct, all := snapshotFixture(t, 150)
	ctx := context.Background()
	baseline, _, err := ct.Search(ctx, all, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	baseIDs := make(map[int64]bool, len(baseline))
	for _, r := range baseline {
		baseIDs[r.ID] = true
	}

	var stop atomic.Bool
	var writerErr, readerErr atomic.Value
	var wg sync.WaitGroup

	// Writer: churn a disjoint ID range [5000, ...), committing per op.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for id := int64(5000); !stop.Load(); id++ {
			center := Pt(rng.Float64()*1000, rng.Float64()*1000)
			if err := ct.Insert(id, UniformCircle(center, 10)); err != nil {
				writerErr.Store(err)
				return
			}
			if id%2 == 0 {
				if err := ct.Delete(id); err != nil {
					writerErr.Store(err)
					return
				}
			}
		}
	}()

	const readers = 6
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				res, _, err := ct.Search(ctx, all, 0.5)
				if err != nil {
					readerErr.Store(fmt.Errorf("reader %d search: %w", r, err))
					return
				}
				got := make(map[int64]bool, len(res))
				for _, re := range res {
					got[re.ID] = true
				}
				// Every base object is in every epoch; churned IDs are
				// epoch-dependent but must come from the writer's range.
				for id := range baseIDs {
					if !got[id] {
						readerErr.Store(fmt.Errorf("reader %d: base object %d missing", r, id))
						return
					}
				}
				for id := range got {
					if !baseIDs[id] && id < 5000 {
						readerErr.Store(fmt.Errorf("reader %d: phantom object %d", r, id))
						return
					}
				}
				if i%10 == 0 {
					snap := ct.Snapshot()
					if err := snap.CheckInvariants(); err != nil {
						snap.Close()
						readerErr.Store(fmt.Errorf("reader %d epoch %d invariants: %w", r, snap.Epoch(), err))
						return
					}
					snap.Close()
				}
			}
		}(r)
	}

	time.Sleep(1500 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if err, _ := writerErr.Load().(error); err != nil {
		t.Fatalf("writer: %v", err)
	}
	if err, _ := readerErr.Load().(error); err != nil {
		t.Fatalf("reader: %v", err)
	}

	// Quiesced: reclaim everything, then assert no leaks of any kind.
	if err := ct.Flush(); err != nil {
		t.Fatal(err)
	}
	if gc := ct.GCInfo(); gc.Pins != 0 || gc.PendingPages != 0 {
		t.Fatalf("after drain: pins=%d pendingPages=%d, want 0/0", gc.Pins, gc.PendingPages)
	}
	if err := ct.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(50 * time.Millisecond) // let finished goroutines unwind
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Fatalf("goroutine leak: %d before, %d after drain", before, after)
	}
}
