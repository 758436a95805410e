package pagefile

import (
	"errors"
	"testing"
	"time"
)

func fill(b byte) []byte {
	buf := make([]byte, PageSize)
	for i := range buf {
		buf[i] = b
	}
	return buf
}

func TestVersionedCOWViolation(t *testing.T) {
	vs := NewVersionedStore(NewMemStore(), 0)
	id, err := vs.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := vs.Write(id, fill(1)); err != nil {
		t.Fatalf("write to fresh page: %v", err)
	}
	if err := vs.Commit("epoch1"); err != nil {
		t.Fatal(err)
	}
	if err := vs.Write(id, fill(2)); !errors.Is(err, ErrCOWViolation) {
		t.Fatalf("in-place write to committed page: got %v, want ErrCOWViolation", err)
	}
	vs.MarkInPlace(id)
	if err := vs.Write(id, fill(2)); err != nil {
		t.Fatalf("write to exempted page: %v", err)
	}
}

func TestVersionedDeferredFreeAndPins(t *testing.T) {
	inner := NewMemStore()
	vs := NewVersionedStore(inner, 0)
	old, _ := vs.Alloc()
	if err := vs.Write(old, fill(7)); err != nil {
		t.Fatal(err)
	}
	if err := vs.Commit(nil); err != nil {
		t.Fatal(err)
	}

	// Reader pins epoch 1; writer retires the page and commits epoch 2.
	_, epoch, release := vs.Pin()
	if epoch != 1 {
		t.Fatalf("pinned epoch %d, want 1", epoch)
	}
	if err := vs.Free(old); err != nil {
		t.Fatal(err)
	}
	if err := vs.Commit(nil); err != nil {
		t.Fatal(err)
	}

	// The pinned snapshot must still read the retired page's bytes.
	buf := make([]byte, PageSize)
	if err := vs.Read(old, buf); err != nil || buf[0] != 7 {
		t.Fatalf("pinned read: err=%v buf[0]=%d", err, buf[0])
	}
	if _, pins, pending := vs.GCStats(); pins != 1 || pending != 1 {
		t.Fatalf("GCStats pins=%d pending=%d, want 1/1", pins, pending)
	}

	// Release + writer-side reclaim frees the page — and that is all a
	// reclaim does: no page is read or written on its behalf.
	release()
	release() // idempotent
	r0, w0, _, f0 := inner.Stats().Snapshot()
	if err := vs.Reclaim(); err != nil {
		t.Fatal(err)
	}
	if r, w, _, f := inner.Stats().Snapshot(); r != r0 || w != w0 || f != f0+1 {
		t.Fatalf("reclaim did %d reads, %d writes, %d frees; want 0/0/1", r-r0, w-w0, f-f0)
	}
	if err := vs.Read(old, buf); err == nil {
		t.Fatal("read of reclaimed page succeeded")
	}
	if _, pins, pending := vs.GCStats(); pins != 0 || pending != 0 {
		t.Fatalf("GCStats after reclaim pins=%d pending=%d, want 0/0", pins, pending)
	}
}

func TestVersionedFreshFreeIsImmediate(t *testing.T) {
	inner := NewMemStore()
	vs := NewVersionedStore(inner, 0)
	id, _ := vs.Alloc()
	if err := vs.Free(id); err != nil {
		t.Fatal(err)
	}
	if n := inner.NumPages(); n != 0 {
		t.Fatalf("fresh free left %d live pages", n)
	}
	if _, _, pending := vs.GCStats(); pending != 0 {
		t.Fatalf("fresh free deferred %d pages", pending)
	}
}

func TestVersionedRollback(t *testing.T) {
	inner := NewMemStore()
	vs := NewVersionedStore(inner, 0)
	committed, _ := vs.Alloc()
	if err := vs.Write(committed, fill(3)); err != nil {
		t.Fatal(err)
	}
	if err := vs.Commit(nil); err != nil {
		t.Fatal(err)
	}

	// A failed batch: one shadow page allocated, the committed page retired.
	shadow, _ := vs.Alloc()
	if err := vs.Write(shadow, fill(4)); err != nil {
		t.Fatal(err)
	}
	if err := vs.Free(committed); err != nil {
		t.Fatal(err)
	}
	if err := vs.Rollback(); err != nil {
		t.Fatal(err)
	}

	// The shadow page is gone, the committed page is intact and writable
	// only via COW (its deferred free was dropped).
	buf := make([]byte, PageSize)
	if err := vs.Read(committed, buf); err != nil || buf[0] != 3 {
		t.Fatalf("committed page after rollback: err=%v buf[0]=%d", err, buf[0])
	}
	if err := vs.Read(shadow, buf); err == nil {
		t.Fatal("shadow page survived rollback")
	}
	if _, _, pending := vs.GCStats(); pending != 0 {
		t.Fatalf("rollback left %d pending pages", pending)
	}
	if err := vs.Commit(nil); err != nil {
		t.Fatal(err)
	}
	if err := vs.Read(committed, buf); err != nil || buf[0] != 3 {
		t.Fatalf("committed page after post-rollback commit: err=%v buf[0]=%d", err, buf[0])
	}
}

// TestDataFileSealedPagesAreImmutable: the in-place exemption follows the
// append page. However many data pages a file fills, the exempt set holds
// the append page (and whatever else was marked — here nothing), a page the
// file has moved on from refuses an in-place write like a committed node,
// and a rollback that rewinds the append page gets the exemption back at
// its next flush.
func TestDataFileSealedPagesAreImmutable(t *testing.T) {
	vs := NewVersionedStore(NewMemStore(), 0)
	df := NewDataFile(vs)
	rec := make([]byte, 1500) // two per page
	var addrs []DataAddr
	appendN := func(n int, rec []byte) {
		t.Helper()
		for i := 0; i < n; i++ {
			rec[0] = byte(len(addrs))
			a, err := df.Append(rec)
			if err != nil {
				t.Fatal(err)
			}
			addrs = append(addrs, a)
		}
	}
	commit := func() {
		t.Helper()
		if err := df.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := vs.Commit(df.CurrentPage()); err != nil {
			t.Fatal(err)
		}
	}
	// Three commits, seven records, four pages; the last holds one record.
	for _, n := range []int{3, 2, 2} {
		appendN(n, rec)
		commit()
	}
	if last := addrs[len(addrs)-1]; last.Page != df.CurrentPage() || addrs[0].Page == addrs[4].Page {
		t.Fatalf("layout %v, want several pages ending on the append page", addrs)
	}
	if len(vs.inPlace) != 1 || !vs.inPlace[df.CurrentPage()] {
		t.Fatalf("exempt pages %v, want only the append page %d", vs.inPlace, df.CurrentPage())
	}
	sealed, err := df.ReadPage(addrs[0].Page)
	if err != nil {
		t.Fatal(err)
	}
	if err := vs.Write(addrs[0].Page, sealed); !errors.Is(err, ErrCOWViolation) {
		t.Fatalf("in-place write to a sealed data page: got %v, want ErrCOWViolation", err)
	}

	// A failed batch fills the committed append page, flushes it, moves on
	// to a fresh page, and is rolled back.
	committed := df.CurrentPage()
	appendN(2, rec)
	if df.CurrentPage() == committed {
		t.Fatal("batch did not move on to a fresh page")
	}
	if err := df.Flush(); err != nil {
		t.Fatal(err)
	}
	df.SetCurrent(vs.State().(PageID))
	if err := vs.Rollback(); err != nil {
		t.Fatal(err)
	}
	addrs = addrs[:len(addrs)-2]
	if len(vs.inPlace) != 0 {
		t.Fatalf("exempt pages %v after rollback, want none until the next flush", vs.inPlace)
	}
	// The rewound page takes appends again, after the failed batch's slot
	// (which left room for a small record only).
	appendN(1, rec[:100])
	if a := addrs[len(addrs)-1]; a.Page != committed || a.Slot != 2 {
		t.Fatalf("append after rollback went to %+v, want page %d slot 2", a, committed)
	}
	commit()
	if len(vs.inPlace) != 1 || !vs.inPlace[committed] {
		t.Fatalf("exempt pages %v, want only the append page %d", vs.inPlace, committed)
	}
	for i, a := range addrs {
		if got, err := df.Read(a); err != nil || got[0] != byte(i) {
			t.Fatalf("record %d at %+v: err=%v", i, a, err)
		}
	}
}

func TestVersionedBudgetedReclaimPreservesOrder(t *testing.T) {
	inner := NewMemStore()
	vs := NewVersionedStore(inner, 0)
	// Two committed epochs, each retiring two pages.
	var retired []PageID
	for e := 0; e < 2; e++ {
		var fresh []PageID
		for i := 0; i < 2; i++ {
			id, _ := vs.Alloc()
			if err := vs.Write(id, fill(byte(e+1))); err != nil {
				t.Fatal(err)
			}
			fresh = append(fresh, id)
		}
		if err := vs.Commit(nil); err != nil {
			t.Fatal(err)
		}
		// Pin blocks the drain so the frees queue up across commits.
		_, _, release := vs.Pin()
		for _, id := range fresh {
			if err := vs.Free(id); err != nil {
				t.Fatal(err)
			}
		}
		retired = append(retired, fresh...)
		if err := vs.Commit(nil); err != nil {
			t.Fatal(err)
		}
		release()
	}
	// The second epoch's pin blocked its drain; 2 pages from each round may
	// remain. Reclaim with budget 1 three times: pages must drain oldest
	// epoch first, remainder requeued.
	info := vs.GCInfo()
	if info.PendingPages == 0 {
		t.Skip("all garbage drained eagerly; nothing to budget")
	}
	start := info.ReclaimedPages
	for vs.GCInfo().PendingPages > 0 {
		before := vs.GCInfo().PendingPages
		if n := vs.reclaimSome(1); n != 1 {
			t.Fatalf("budget-1 tick reclaimed %d ops", n)
		}
		if after := vs.GCInfo().PendingPages; after != before-1 {
			t.Fatalf("pending went %d -> %d on a budget-1 tick", before, after)
		}
	}
	if got := vs.GCInfo().ReclaimedPages - start; got == 0 {
		t.Fatal("no pages reclaimed")
	}
	for _, id := range retired {
		buf := make([]byte, PageSize)
		if err := vs.Read(id, buf); err == nil {
			t.Fatalf("retired page %d still readable after full drain", id)
		}
	}
}

func TestVersionedBackgroundReclaimerDrainsWhileIdle(t *testing.T) {
	inner := NewMemStore()
	vs := NewVersionedStore(inner, 0)
	vs.StartReclaimer(time.Millisecond, 4)
	defer vs.StopReclaimer()
	vs.StartReclaimer(time.Millisecond, 4) // idempotent
	if !vs.ReclaimerRunning() {
		t.Fatal("reclaimer not running")
	}
	// Retire 20 pages across several epochs; Commit must NOT drain inline
	// while the reclaimer runs, and the reclaimer must drain them all with
	// no further writer activity.
	for e := 0; e < 5; e++ {
		var fresh []PageID
		for i := 0; i < 4; i++ {
			id, _ := vs.Alloc()
			if err := vs.Write(id, fill(9)); err != nil {
				t.Fatal(err)
			}
			fresh = append(fresh, id)
		}
		if err := vs.Commit(nil); err != nil {
			t.Fatal(err)
		}
		for _, id := range fresh {
			if err := vs.Free(id); err != nil {
				t.Fatal(err)
			}
		}
		if err := vs.Commit(nil); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		info := vs.GCInfo()
		if info.PendingPages == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("reclaimer did not drain: %+v", info)
		}
		time.Sleep(time.Millisecond)
	}
	if n := inner.NumPages(); n != 0 {
		t.Fatalf("%d pages live after idle drain", n)
	}
	vs.StopReclaimer()
	vs.StopReclaimer() // idempotent
	if vs.ReclaimerRunning() {
		t.Fatal("reclaimer still running after stop")
	}
}

// TestVersionedGCInfoCountsDrainInProgress: a reclaim takes its batches off
// the pending list before it frees their pages, so a GCInfo read in that
// window (here: from the invalidation hook each free calls first) must
// still count them — an idle-drain watcher polling for PendingPages == 0
// would otherwise see "done" while pages are still live.
func TestVersionedGCInfoCountsDrainInProgress(t *testing.T) {
	inner := NewMemStore()
	vs := NewVersionedStore(inner, 0)
	var pages []PageID
	for i := 0; i < 3; i++ {
		id, _ := vs.Alloc()
		if err := vs.Write(id, fill(9)); err != nil {
			t.Fatal(err)
		}
		pages = append(pages, id)
	}
	if err := vs.Commit(nil); err != nil {
		t.Fatal(err)
	}
	var mid []int
	vs.AttachInvalidator(func(PageID) { mid = append(mid, vs.GCInfo().PendingPages) })
	for _, id := range pages {
		if err := vs.Free(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := vs.Commit(nil); err != nil { // drains inline
		t.Fatal(err)
	}
	if len(mid) != 3 || mid[0] != 3 || mid[1] != 2 || mid[2] != 1 {
		t.Fatalf("mid-drain GCInfo pending pages %v, want [3 2 1]", mid)
	}
	if _, _, pending := vs.GCStats(); pending != 0 {
		t.Fatalf("GCStats pending=%d after drain, want 0", pending)
	}
	if end := vs.GCInfo(); end.PendingPages != 0 || inner.NumPages() != 0 {
		t.Fatalf("after drain: %+v, %d pages live", end, inner.NumPages())
	}
}

func TestVersionedCommitPublishesStateAtomically(t *testing.T) {
	vs := NewVersionedStore(NewMemStore(), 5)
	if e := vs.Epoch(); e != 5 {
		t.Fatalf("seeded epoch %d, want 5", e)
	}
	vs.SeedState("recovered")
	st, epoch, release := vs.Pin()
	if st != "recovered" || epoch != 5 {
		t.Fatalf("pin got (%v, %d), want (recovered, 5)", st, epoch)
	}
	release()
	if err := vs.Commit("next"); err != nil {
		t.Fatal(err)
	}
	st, epoch, release = vs.Pin()
	defer release()
	if st != "next" || epoch != 6 {
		t.Fatalf("pin got (%v, %d), want (next, 6)", st, epoch)
	}
}
