package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/geom"
	"repro/internal/pagefile"
)

// The copy-on-write epoch (epoch.go), each behaviour against a real tree.

// epochTree bulk loads n objects onto store (nil → memory) and commits them.
func epochTree(t *testing.T, opt Options, n int) (*Tree, []Object) {
	t.Helper()
	objs := makeObjects(n, 3000, rand.New(rand.NewSource(51)))
	opt.Dim = 2
	tree := bulkTree(t, opt, objs)
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	return tree, objs
}

// storedPage is page id's bytes as the store holds them.
func storedPage(t *testing.T, s pagefile.Store, id pagefile.PageID) []byte {
	t.Helper()
	buf := make([]byte, pagefile.PageSize)
	if err := s.Read(id, buf); err != nil {
		t.Fatalf("reading page %d: %v", id, err)
	}
	return buf
}

// TestEpochCOWRefusal: writeNode relocates a committed node to a fresh
// page, and a dirty page that is not fresh — a missed relocation — fails
// Commit with ErrCOWViolation before it reaches the store, the epoch
// unpublished; the batch then rolls back and the tree commits again.
func TestEpochCOWRefusal(t *testing.T) {
	tree, _ := epochTree(t, Options{}, 600)
	root, err := tree.readNode(tree.rootPage, tree.rootLevel)
	if err != nil {
		t.Fatal(err)
	}
	committed := root.page
	if err := tree.writeNode(root); err != nil {
		t.Fatal(err)
	}
	if root.page == committed || !tree.isFresh(root.page) || tree.rootPage != root.page {
		t.Fatalf("rewritten root on page %d (was %d, fresh %v, tree root %d): not relocated",
			root.page, committed, tree.isFresh(root.page), tree.rootPage)
	}
	if err := tree.Rollback(); err != nil {
		t.Fatal(err)
	}

	before, epoch := storedPage(t, tree.store, committed), tree.Epoch()
	tree.dirty[committed] = bytes.Repeat([]byte{0xEE}, pagefile.PageSize)
	if err := tree.Commit(); !errors.Is(err, ErrCOWViolation) {
		t.Fatalf("commit of a dirty committed page: %v, want ErrCOWViolation", err)
	}
	if !bytes.Equal(storedPage(t, tree.store, committed), before) || tree.Epoch() != epoch {
		t.Fatalf("refused commit wrote page %d or published epoch %d (was %d)", committed, tree.Epoch(), epoch)
	}
	if err := tree.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestEpochViewsLendOnlyCommittedPages: a reader of a bare memory tree views
// a committed node page in place — the MemStore's own bytes, one read — and
// caches its node, but neither views nor caches a page the tree writes in
// place: one fresh in the open batch, the metadata page, the append page.
// Each of those here holds a copy of the root's bytes, so it decodes and
// only the lending rule tells it apart. A memory store behind a wrapper is
// read by copy.
func TestEpochViewsLendOnlyCommittedPages(t *testing.T) {
	mem := pagefile.NewMemStore()
	tree, _ := epochTree(t, Options{Store: mem, Persist: true}, 600)
	viewed := func(n *packedNode) bool {
		page, err := mem.View(n.page)
		return err == nil && &page[0] == &n.buf[0]
	}
	reads := mem.Stats().Reads.Load()
	n, err := tree.readCommitted(tree.rootPage, tree.rootLevel)
	if err != nil {
		t.Fatal(err)
	}
	if got := mem.Stats().Reads.Load() - reads; got != 1 || !viewed(n) {
		t.Fatalf("committed root: %d reads (want 1), viewed %v (want the store's page)", got, viewed(n))
	}
	tree.maybeCacheNode(n)
	if _, ok := tree.ncache.get(n.page); !ok {
		t.Fatal("committed root was not cached")
	}

	rootBytes := storedPage(t, mem, tree.rootPage)
	fresh, err := tree.allocPage()
	if err != nil {
		t.Fatal(err)
	}
	for name, id := range map[string]pagefile.PageID{
		"fresh":  fresh,
		"meta":   tree.MetaPage(),
		"append": tree.appendPage,
	} {
		if err := mem.Write(id, rootBytes); err != nil {
			t.Fatal(err)
		}
		n, err := tree.readCommitted(id, tree.rootLevel)
		if err != nil {
			t.Fatalf("%s page %d: %v", name, id, err)
		}
		tree.maybeCacheNode(n)
		if _, cached := tree.ncache.get(id); viewed(n) || cached {
			t.Errorf("%s page %d: viewed %v, cached %v; want neither", name, id, viewed(n), cached)
		}
	}

	inner := pagefile.NewMemStore()
	wrapped, _ := epochTree(t, Options{Store: pagefile.NewChaosStore(inner, 1)}, 600)
	n, err = wrapped.readCommitted(wrapped.rootPage, wrapped.rootLevel)
	if err != nil {
		t.Fatal(err)
	}
	if page, err := inner.View(n.page); err != nil || &page[0] == &n.buf[0] {
		t.Fatalf("wrapped memory store: node views the store's page (err %v)", err)
	}
}

// TestEpochDeferredFreeUnderPins: pages a commit retires stay readable while
// a snapshot of an older epoch is pinned — its queries answer as before —
// and a reclaim after the pin's release frees exactly them, reading and
// writing nothing on their behalf.
func TestEpochDeferredFreeUnderPins(t *testing.T) {
	mem := pagefile.NewMemStore()
	tree, objs := epochTree(t, Options{Store: mem}, 600)
	q := Query{Rect: geom.NewRect(geom.Point{500, 500}, geom.Point{2500, 2500}), Prob: 0.5}
	snap := tree.Snapshot()
	want, _, err := snap.RangeQuery(context.Background(), q, QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range objs[:20] {
		if err := tree.Delete(o.ID); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	var retired []pagefile.PageID
	for _, g := range tree.ep.pending {
		retired = append(retired, g.pages...)
	}
	if gc := tree.GCInfo(); gc.Pins != 1 || gc.PendingPages != len(retired) || len(retired) == 0 {
		t.Fatalf("GCInfo %+v with %d retired pages; want 1 pin holding them all", gc, len(retired))
	}
	got, _, err := snap.RangeQuery(context.Background(), q, QueryOpts{})
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("pinned snapshot after the commit: %d results, err %v; want its %d", len(got), err, len(want))
	}

	snap.Close()
	snap.Close() // idempotent
	r0, w0, _, f0 := mem.Stats().Snapshot()
	if err := tree.Reclaim(); err != nil {
		t.Fatal(err)
	}
	if r, w, _, f := mem.Stats().Snapshot(); r != r0 || w != w0 || f != f0+int64(len(retired)) {
		t.Fatalf("reclaim did %d reads, %d writes, %d frees; want 0/0/%d", r-r0, w-w0, f-f0, len(retired))
	}
	for _, id := range retired {
		if err := mem.Read(id, make([]byte, pagefile.PageSize)); !errors.Is(err, pagefile.ErrPageFreed) {
			t.Fatalf("retired page %d after reclaim: %v, want ErrPageFreed", id, err)
		}
	}
	if gc := tree.GCInfo(); gc.Pins != 0 || gc.PendingPages != 0 || gc.ReclaimedPages < int64(len(retired)) {
		t.Fatalf("GCInfo after reclaim %+v", gc)
	}
}

// TestEpochFreshFreeIsImmediate: a page the open batch allocated and frees
// goes back to the store at once, its dirty bytes dropped, nothing deferred.
func TestEpochFreshFreeIsImmediate(t *testing.T) {
	mem := pagefile.NewMemStore()
	tree, _ := epochTree(t, Options{Store: mem}, 100)
	pages := mem.NumPages()
	n, err := tree.allocNode(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.writeNode(n); err != nil {
		t.Fatal(err)
	}
	if err := tree.freePage(n.page); err != nil {
		t.Fatal(err)
	}
	if mem.NumPages() != pages || len(tree.dirty) != 0 || tree.isFresh(n.page) {
		t.Fatalf("fresh free: %d pages (want %d), %d dirty, fresh %v", mem.NumPages(), pages, len(tree.dirty), tree.isFresh(n.page))
	}
	if gc := tree.GCInfo(); gc.PendingPages != 0 {
		t.Fatalf("fresh free deferred %d pages", gc.PendingPages)
	}
}

// TestEpochRollback: a failed batch's fresh pages go back to the store and
// its retired pages stay as committed — every node page byte for byte —
// with nothing pending; the tree then commits and checks clean.
func TestEpochRollback(t *testing.T) {
	mem := pagefile.NewMemStore()
	tree, _ := epochTree(t, Options{Store: mem}, 600)
	pages := mem.NumPages()
	nodes := map[pagefile.PageID][]byte{}
	if err := tree.walk(tree.rootPage, tree.rootLevel, func(n *node) error {
		nodes[n.page] = storedPage(t, mem, n.page)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, o := range makeObjects(200, 3000, rand.New(rand.NewSource(52))) {
		o.ID += 1 << 20
		if err := tree.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	if gc := tree.GCInfo(); gc.PendingPages == 0 || mem.NumPages() <= pages {
		t.Fatalf("fixture: the batch retired %d pages and holds %d (committed %d)", gc.PendingPages, mem.NumPages(), pages)
	}
	if err := tree.Rollback(); err != nil {
		t.Fatal(err)
	}
	if gc := tree.GCInfo(); gc.PendingPages != 0 || mem.NumPages() != pages || tree.Len() != 600 {
		t.Fatalf("after rollback: %d pending, %d pages (want %d), %d objects", gc.PendingPages, mem.NumPages(), pages, tree.Len())
	}
	for id, want := range nodes {
		if !bytes.Equal(storedPage(t, mem, id), want) {
			t.Fatalf("committed node page %d changed", id)
		}
	}
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestEpochSealedDataPagesStayPut: a data page the tree has stopped
// appending to keeps its bytes through later appends, commits and a
// rolled-back batch that filled pages of its own; the rollback rewinds to
// the committed append page, and every object reads back.
func TestEpochSealedDataPagesStayPut(t *testing.T) {
	mem := pagefile.NewMemStore()
	tree, err := New(Options{Dim: 2, Store: mem})
	if err != nil {
		t.Fatal(err)
	}
	objs := makeObjects(1200, 3000, rand.New(rand.NewSource(53)))
	// sealed holds each data page a commit left behind the append page, as
	// that commit left it; a page sealed only inside the failed batch is
	// not committed, and the rollback frees or reopens it.
	sealed := map[pagefile.PageID][]byte{}
	check := func(when string) {
		t.Helper()
		for id, want := range sealed {
			if !bytes.Equal(storedPage(t, mem, id), want) {
				t.Fatalf("%s: sealed data page %d changed", when, id)
			}
		}
		if tree.Uncommitted() != 0 {
			return
		}
		for _, a := range tree.dir {
			if _, ok := sealed[a.Page]; !ok && a.Page != tree.appendPage {
				sealed[a.Page] = storedPage(t, mem, a.Page)
			}
		}
	}
	insert := func(objs []Object) {
		t.Helper()
		for _, o := range objs {
			if err := tree.Insert(o); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 800; i += 200 {
		insert(objs[i : i+200])
		if err := tree.Commit(); err != nil {
			t.Fatal(err)
		}
		check("commit")
	}
	appendPage := tree.appendPage
	insert(objs[800:1000])
	if tree.appendPage == appendPage {
		t.Fatal("fixture: the failed batch did not move on to a fresh data page")
	}
	check("open batch")
	if err := tree.Rollback(); err != nil {
		t.Fatal(err)
	}
	check("rollback")
	if got := tree.appendPage; got != appendPage {
		t.Fatalf("append page %d after the rollback, want the committed one, %d", got, appendPage)
	}
	insert(objs[1000:])
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	check("commit after rollback")
	sc := getScratch()
	defer sc.release()
	for id, a := range tree.dir {
		if o, err := sc.object(tree.store, tree.shapes, id, a, new(int)); err != nil || o.ID != id {
			t.Fatalf("object %d at %+v: read %d, err %v", id, a, o.ID, err)
		}
	}
}

// freeWatch calls onFree before each page free reaches the store.
type freeWatch struct {
	pagefile.Store
	onFree func()
}

func (f *freeWatch) Free(id pagefile.PageID) error {
	if f.onFree != nil {
		f.onFree()
	}
	return f.Store.Free(id)
}

// TestEpochGCInfoCountsDrainInProgress: a reclaim takes its batches off the
// pending list before it frees their pages, so a GCInfo read in that
// window — here, from the store's Free — must still count them: a watcher
// reading PendingPages == 0 would otherwise see "done" while pages are
// still live.
func TestEpochGCInfoCountsDrainInProgress(t *testing.T) {
	fw := &freeWatch{Store: pagefile.NewMemStore()}
	tree, objs := epochTree(t, Options{Store: fw}, 600)
	for _, o := range objs[:20] {
		if err := tree.Delete(o.ID); err != nil {
			t.Fatal(err)
		}
	}
	n := tree.GCInfo().PendingPages
	if n < 2 {
		t.Fatalf("fixture: the batch retired %d pages", n)
	}
	var mid []int
	fw.onFree = func() { mid = append(mid, tree.GCInfo().PendingPages) }
	if err := tree.Commit(); err != nil { // drains inline: no pin
		t.Fatal(err)
	}
	want := make([]int, n)
	for i := range want {
		want[i] = n - i
	}
	if !reflect.DeepEqual(mid, want) {
		t.Fatalf("mid-drain pending pages %v, want %v", mid, want)
	}
	if gc := tree.GCInfo(); gc.PendingPages != 0 || gc.PendingEpochs != 0 {
		t.Fatalf("after the drain: %+v", gc)
	}
}

// TestEpochCommitPublishesStateAtomically: a reopened tree publishes its
// recovered state at the persisted epoch, and each commit publishes its
// state with the epoch bump — readers pinning while the writer commits one
// insert an epoch always see the length of the epoch they pinned.
func TestEpochCommitPublishesStateAtomically(t *testing.T) {
	mem := pagefile.NewMemStore()
	built, objs := epochTree(t, Options{Store: mem, Persist: true}, 50)
	tree, _, err := Open(mem, built.MetaPage(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	e0 := built.Epoch()
	if snap := tree.Snapshot(); snap.Epoch() != e0 || snap.Len() != len(objs) {
		t.Fatalf("reopened: epoch %d with %d objects, want %d with %d", snap.Epoch(), snap.Len(), e0, len(objs))
	} else {
		snap.Close()
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	defer wg.Wait()
	defer done.Store(true)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				snap := tree.Snapshot()
				if want := len(objs) + int(snap.Epoch()-e0); snap.Len() != want {
					t.Errorf("epoch %d pinned with %d objects, want %d", snap.Epoch(), snap.Len(), want)
				}
				snap.Close()
			}
		}()
	}
	for i, o := range makeObjects(100, 3000, rand.New(rand.NewSource(54))) {
		o.ID += 1 << 20
		if err := tree.Insert(o); err != nil {
			t.Fatal(err)
		}
		if err := tree.Commit(); err != nil {
			t.Fatal(err)
		}
		if tree.Epoch() != e0+uint64(i)+1 {
			t.Fatalf("commit %d published epoch %d", i, tree.Epoch())
		}
	}
}

// TestEpochRollbackWritesNothing: a batch that fills the committed append
// page and starts another writes no page before its commit, so its
// rollback leaves the store as the last commit left it — the append page
// byte-identical — and the next commit's records start at that page's old
// free slot, leaving no unreferenced slot behind.
func TestEpochRollbackWritesNothing(t *testing.T) {
	wc := &writeCounter{Store: pagefile.NewMemStore(), writes: make(map[pagefile.PageID]int)}
	tree, _ := epochTree(t, Options{Store: wc}, 600)
	page := tree.appendPage
	before := storedPage(t, wc, page)
	slots := binary.LittleEndian.Uint16(before) &^ denseFlag
	if slots == 0 || binary.LittleEndian.Uint16(before[2:]) < 512 {
		t.Fatalf("fixture: append page %d holds %d slots, %d bytes free", page, slots, binary.LittleEndian.Uint16(before[2:]))
	}
	wc.reset()
	objs := makeObjects(400, 3000, rand.New(rand.NewSource(55)))
	for i := range objs {
		objs[i].ID += 1 << 20
	}
	n := 0
	for ; n < len(objs) && tree.appendPage == page; n++ {
		if err := tree.Insert(objs[n]); err != nil {
			t.Fatal(err)
		}
	}
	if tree.appendPage == page {
		t.Fatal("fixture: the batch never filled the committed append page")
	}
	if err := tree.Rollback(); err != nil {
		t.Fatal(err)
	}
	if w := wc.reset(); len(w) != 0 {
		t.Fatalf("a rolled-back batch of %d inserts wrote pages %v, want none", n, w)
	}
	if !bytes.Equal(storedPage(t, wc, page), before) {
		t.Fatalf("the rollback left append page %d changed in the store", page)
	}
	if err := tree.Insert(objs[0]); err != nil {
		t.Fatal(err)
	}
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	if a, _ := tree.RecordAddr(objs[0].ID); a != (DataAddr{Page: page, Slot: slots}) {
		t.Fatalf("the next commit's record at %+v, want page %d slot %d", a, page, slots)
	}
}

// TestEpochSnapshotRecordsBesideWriter: snapshot record checks and range
// queries run on pinned epochs while the writer's batches fill and roll
// over append pages, commit and roll back. A snapshot reads its records
// from the store, never from the writer's append bytes, so this holds
// without a lock on them (run it under -race); each pinned epoch checks
// clean and answers a repeated query alike.
func TestEpochSnapshotRecordsBesideWriter(t *testing.T) {
	tree, _ := epochTree(t, Options{Store: pagefile.NewMemStore()}, 600)
	var done atomic.Bool
	var wg, started sync.WaitGroup
	defer wg.Wait()
	defer done.Store(true)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		started.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			ctx := context.Background()
			for first := true; first || !done.Load(); first = false {
				snap := tree.Snapshot()
				if first {
					started.Done()
				}
				if err := snap.CheckRecords(); err != nil {
					t.Errorf("epoch %d: %v", snap.Epoch(), err)
				}
				q := Query{Rect: randomQueryRect(rng, 3000), Prob: 0.05 + 0.9*rng.Float64()}
				a, _, err1 := snap.RangeQuery(ctx, q, QueryOpts{})
				b, _, err2 := snap.RangeQuery(ctx, q, QueryOpts{})
				if err1 != nil || err2 != nil || !reflect.DeepEqual(a, b) {
					t.Errorf("epoch %d: a repeated query answered %d then %d results (%v, %v)", snap.Epoch(), len(a), len(b), err1, err2)
				}
				snap.Close()
			}
		}(int64(56 + r))
	}
	objs := makeObjects(1200, 3000, rand.New(rand.NewSource(58)))
	for i := range objs {
		objs[i].ID += 1 << 20
	}
	started.Wait()
	for round := 0; round < 8; round++ {
		for _, o := range objs[round*150 : (round+1)*150] {
			if err := tree.Insert(o); err != nil {
				t.Fatal(err)
			}
		}
		if round%3 == 2 {
			if err := tree.Rollback(); err != nil {
				t.Fatal(err)
			}
		} else if err := tree.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
