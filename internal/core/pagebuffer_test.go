package core

import (
	"bytes"
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/pagefile"
)

// writeCounter counts base-store writes per page.
type writeCounter struct {
	pagefile.Store
	mu     sync.Mutex
	writes map[pagefile.PageID]int
}

func (w *writeCounter) Write(id pagefile.PageID, buf []byte) error {
	w.mu.Lock()
	w.writes[id]++
	w.mu.Unlock()
	return w.Store.Write(id, buf)
}

// reset returns the per-page counts so far and starts new ones.
func (w *writeCounter) reset() map[pagefile.PageID]int {
	w.mu.Lock()
	defer w.mu.Unlock()
	got := w.writes
	w.writes = make(map[pagefile.PageID]int)
	return got
}

// TestPageBufferEmptyAtRest checks that the dirty map holds only the open
// batch's pages: after a committed bulk load, after a committed batch of
// inserts and deletes, and after snapshot queries and checks, it holds no
// page, and a snapshot reads past it, straight from the store, counting in
// neither CacheStats column nor the writer's logical node reads.
func TestPageBufferEmptyAtRest(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	objs := makeObjects(1500, 3000, rng)
	tree := bulkTree(t, Options{Dim: 2}, objs)
	if len(tree.dirty) == 0 {
		t.Fatal("an open bulk load holds no dirty page")
	}
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := len(tree.dirty); n != 0 {
		t.Fatalf("%d dirty pages after a committed BulkLoad, want 0", n)
	}

	for i, o := range makeObjects(40, 3000, rng) {
		o.ID = int64(len(objs) + i)
		if err := tree.Insert(o); err != nil {
			t.Fatal(err)
		}
		if err := tree.Delete(objs[i].ID); err != nil {
			t.Fatal(err)
		}
	}
	if len(tree.dirty) == 0 {
		t.Fatal("an open batch holds no dirty page")
	}
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := len(tree.dirty); n != 0 {
		t.Fatalf("%d dirty pages after a committed batch, want 0", n)
	}

	hits0, misses0 := tree.CacheStats()
	snap := tree.Snapshot()
	defer snap.Close()
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		rq := randomQueryRect(rng, 3000)
		if _, _, err := snap.RangeQuery(ctx, Query{Rect: rq, Prob: 0.3}, QueryOpts{}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := snap.NearestNeighbors(ctx, geom.Point{rq.Lo[0], rq.Lo[1]}, 5, QueryOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := snap.CheckRecords(); err != nil {
		t.Fatal(err)
	}
	hits1, misses1 := tree.CacheStats()
	if n := len(tree.dirty); n != 0 {
		t.Fatalf("%d dirty pages after snapshot queries, want 0", n)
	}
	if hits1 != hits0 || misses1 != misses0 {
		t.Fatalf("snapshot reads went through the writer (%d hits, %d misses), want past it to the store", hits1-hits0, misses1-misses0)
	}
	if _, misses := tree.NodeCacheStats(); misses == 0 {
		t.Fatal("queries read no page: the node cache hid the store entirely")
	}
}

// TestPageBufferBatchWritesEachPageOnce commits one batch of 3,000 inserts
// into a 40,000-object tree: it rewrites some nodes many times, and its
// commit writes every page the batch wrote — node, data and metadata pages
// alike — exactly once.
func TestPageBufferBatchWritesEachPageOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	const span = 20000
	objs := makeObjects(43000, span, rng)
	wc := &writeCounter{Store: pagefile.NewMemStore(), writes: make(map[pagefile.PageID]int)}
	tree := bulkTree(t, Options{Dim: 2, Store: wc, Persist: true}, objs[:40000])
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	wc.reset()
	_, misses0 := tree.CacheStats()
	for _, o := range objs[40000:] {
		if err := tree.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	if _, misses := tree.CacheStats(); misses == misses0 {
		t.Fatal("the batch read no committed page")
	}
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	written := wc.reset()
	again := 0
	for id, n := range written {
		if n != 1 {
			again++
			if again <= 5 {
				t.Errorf("page %d written %d times, want once", id, n)
			}
		}
	}
	t.Logf("the batch wrote %d pages, %d of them more than once", len(written), again)
	if again != 0 {
		t.Fatalf("%d of %d pages written more than once", again, len(written))
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPageBufferFreedPageNeverWritten frees a fresh node page the open
// batch has written: its bytes leave the dirty map unwritten, and when the
// batch allocates the id again as a data page, the commit writes the page
// once, with the record, never with the stale node.
func TestPageBufferFreedPageNeverWritten(t *testing.T) {
	wc := &writeCounter{Store: pagefile.NewMemStore(), writes: make(map[pagefile.PageID]int)}
	tree, err := New(Options{Dim: 2, Store: wc})
	if err != nil {
		t.Fatal(err)
	}
	wc.reset()
	n, err := tree.allocNode(1)
	if err != nil {
		t.Fatal(err)
	}
	n.entries = []entry{{child: tree.rootPage, boxes: []geom.Rect{geom.NewRect(geom.Point{0, 0}, geom.Point{1, 1})}}}
	if err := tree.writeNode(n); err != nil {
		t.Fatal(err)
	}
	freed := n.page
	if err := tree.freePage(n.page); err != nil {
		t.Fatal(err)
	}
	if _, ok := tree.dirty[freed]; ok {
		t.Fatalf("freed page %d is still dirty", freed)
	}
	// The store recycles the freed id for the first record's data page.
	o := makeObjects(1, 100, rand.New(rand.NewSource(38)))[0]
	if err := tree.Insert(o); err != nil {
		t.Fatal(err)
	}
	addr, ok := tree.RecordAddr(o.ID)
	if !ok || addr.Page != freed {
		t.Fatalf("record at %+v (%v), want it on the recycled page %d", addr, ok, freed)
	}
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := wc.reset()[freed]; n != 1 {
		t.Fatalf("page %d written %d times, want once, as a data page", freed, n)
	}
	buf := make([]byte, pagefile.PageSize)
	if err := wc.Read(freed, buf); err != nil {
		t.Fatal(err)
	}
	rec, legacy, err := RecordFromPage(buf, addr.Slot)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := decodeObject(rec, legacy, tree.shapes); err != nil || got.ID != o.ID {
		t.Fatalf("page %d holds object %d (%v), want the record of %d", freed, got.ID, err, o.ID)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// countedTree bulk loads n objects onto a fresh in-memory store behind a
// writeCounter and commits them, so the next batch starts from a clean map.
// Its callers count store reads as deltas of the store's Stats.
func countedTree(t *testing.T, n int, seed int64) (*Tree, *pagefile.MemStore, *writeCounter) {
	t.Helper()
	ms := pagefile.NewMemStore()
	wc := &writeCounter{Store: ms, writes: make(map[pagefile.PageID]int)}
	tree := bulkTree(t, Options{Dim: 2, Store: wc}, makeObjects(n, 3000, rand.New(rand.NewSource(seed))))
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	if tree.rootLevel == 0 {
		t.Fatalf("%d objects fit in the root leaf; the test needs a parent", n)
	}
	wc.reset()
	return tree, ms, wc
}

// TestPageBufferReadThroughAndWriteBack writes a node in an open batch: the
// writer reads it back from the dirty map (a hit, no store read), the store
// sees no write of it until Commit, and Commit writes the map's bytes once.
func TestPageBufferReadThroughAndWriteBack(t *testing.T) {
	tree, ms, wc := countedTree(t, 1500, 39)
	hits0, misses0 := tree.CacheStats()
	reads0 := ms.Stats().Reads.Load()
	root, err := tree.readNode(tree.rootPage, tree.rootLevel)
	if err != nil {
		t.Fatal(err)
	}
	if reads := ms.Stats().Reads.Load() - reads0; reads != 1 {
		t.Fatalf("reading the committed root made %d store reads, want 1", reads)
	}
	committedRoot := root.page
	if err := tree.writeNode(root); err != nil {
		t.Fatal(err)
	}
	if root.page == committedRoot {
		t.Fatal("a committed root was rewritten in place")
	}
	if _, ok := tree.dirty[root.page]; !ok {
		t.Fatalf("root's shadow page %d is not in the dirty map", root.page)
	}
	if n := len(wc.reset()); n != 0 {
		t.Fatalf("the batch wrote %d pages before Commit, want 0", n)
	}

	again, err := tree.readNode(root.page, root.level)
	if err != nil {
		t.Fatal(err)
	}
	if reads := ms.Stats().Reads.Load() - reads0; reads != 1 {
		t.Fatalf("reading the dirty root made %d store reads, want none", reads-1)
	}
	if hits, misses := tree.CacheStats(); hits-hits0 != 1 || misses-misses0 != 1 {
		t.Fatalf("hit/miss counts %d/%d, want 1/1", hits-hits0, misses-misses0)
	}
	if len(again.entries) != len(root.entries) {
		t.Fatalf("dirty root reads back %d entries, want %d", len(again.entries), len(root.entries))
	}
	for i := range root.entries {
		if again.entries[i].child != root.entries[i].child {
			t.Fatalf("entry %d reads back child %d, want %d", i, again.entries[i].child, root.entries[i].child)
		}
	}

	want := bytes.Clone(tree.dirty[root.page])
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := wc.reset()[root.page]; n != 1 {
		t.Fatalf("Commit wrote the root's page %d times, want once", n)
	}
	buf := make([]byte, pagefile.PageSize)
	if err := ms.Read(root.page, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("the store holds other bytes than the dirty map did")
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPageBufferFlushWritesEachPageOnce rewrites four leaves and their
// parent three times each in one batch: the map holds one page a node and
// the store sees no write until Commit, which writes each page once, with
// its last bytes. A commit of an empty batch then writes no page.
func TestPageBufferFlushWritesEachPageOnce(t *testing.T) {
	tree, ms, wc := countedTree(t, 1500, 40)
	root, err := tree.readNode(tree.rootPage, tree.rootLevel)
	if err != nil {
		t.Fatal(err)
	}
	if len(root.entries) < 4 {
		t.Fatalf("root has %d children, want at least 4", len(root.entries))
	}
	leaves := make([]*node, 4)
	for i := range leaves {
		if leaves[i], err = tree.readNode(root.entries[i].child, root.level-1); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 3; round++ {
		for i, n := range leaves {
			// Entry order is free within a node, so a rotation changes the
			// page and keeps the tree valid.
			n.entries = append(n.entries[1:], n.entries[0])
			if err := tree.writeNode(n); err != nil {
				t.Fatal(err)
			}
			root.entries[i].child = n.page
		}
		if err := tree.writeNode(root); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(tree.dirty); n != len(leaves)+1 {
		t.Fatalf("the dirty map holds %d pages, want %d", n, len(leaves)+1)
	}
	if n := len(wc.reset()); n != 0 {
		t.Fatalf("the batch wrote %d pages before Commit, want 0", n)
	}
	want := make(map[pagefile.PageID][]byte, len(tree.dirty))
	for id, buf := range tree.dirty {
		want[id] = bytes.Clone(buf)
	}

	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	written := wc.reset()
	if len(written) != len(want) {
		t.Fatalf("Commit wrote %d pages, want %d", len(written), len(want))
	}
	buf := make([]byte, pagefile.PageSize)
	for id, b := range want {
		if n := written[id]; n != 1 {
			t.Errorf("page %d written %d times, want once", id, n)
		}
		if err := ms.Read(id, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, b) {
			t.Errorf("page %d: the store holds stale contents", id)
		}
	}
	if n := len(tree.dirty); n != 0 {
		t.Fatalf("%d dirty pages after Commit, want 0", n)
	}

	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := len(wc.reset()); n != 0 {
		t.Fatalf("an empty batch's commit wrote %d pages", n)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPageBufferCleanGetNotKept reads committed nodes twice each in an
// open batch without writing them: every read goes to the store (a miss),
// and the dirty map keeps none of them.
func TestPageBufferCleanGetNotKept(t *testing.T) {
	tree, ms, wc := countedTree(t, 1500, 41)
	hits0, misses0 := tree.CacheStats()
	reads0 := ms.Stats().Reads.Load()
	root, err := tree.readNode(tree.rootPage, tree.rootLevel)
	if err != nil {
		t.Fatal(err)
	}
	reads := int64(1)
	for i := 0; i < 2; i++ {
		for _, e := range root.entries {
			n, err := tree.readNode(e.child, root.level-1)
			if err != nil {
				t.Fatal(err)
			}
			if n.page != e.child || n.level != root.level-1 {
				t.Fatalf("read page %d at level %d, want page %d at level %d", n.page, n.level, e.child, root.level-1)
			}
			reads++
		}
	}
	if got := ms.Stats().Reads.Load() - reads0; got != reads {
		t.Fatalf("%d clean node reads made %d store reads, want %d", reads, got, reads)
	}
	if hits, misses := tree.CacheStats(); hits != hits0 || misses-misses0 != reads {
		t.Fatalf("hit/miss counts %d/%d, want 0/%d", hits-hits0, misses-misses0, reads)
	}
	if n := len(tree.dirty); n != 0 {
		t.Fatalf("the dirty map holds %d pages after clean reads, want 0", n)
	}
	if n := len(wc.reset()); n != 0 {
		t.Fatalf("clean reads wrote %d pages", n)
	}
}
