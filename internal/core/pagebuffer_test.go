package core

import (
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

// TestPageBufferEmptyAtRest checks that the page buffer holds only the open
// batch's dirty pages: after a bulk load and Flush, after a committed batch
// of inserts and deletes, and after snapshot queries, it holds no page, and
// a query reads past it, straight from the store.
func TestPageBufferEmptyAtRest(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	objs := makeObjects(1500, 3000, rng)
	tree := bulkTree(t, Options{Dim: 2}, objs)
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := tree.pool.Dirty(); n != 0 {
		t.Fatalf("%d pages buffered after BulkLoad+Flush, want 0", n)
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
	if tree.pool.Dirty() == 0 {
		t.Fatal("an open batch buffered no page")
	}
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := tree.pool.Dirty(); n != 0 {
		t.Fatalf("%d pages buffered after a committed batch, want 0", n)
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
	hits1, misses1 := tree.CacheStats()
	if n := tree.pool.Dirty(); n != 0 {
		t.Fatalf("%d pages buffered after snapshot queries, want 0", n)
	}
	if hits1 != hits0 || misses1 != misses0 {
		t.Fatalf("queries went through the write buffer (%d hits, %d misses), want past it to the store", hits1-hits0, misses1-misses0)
	}
	if _, misses := tree.NodeCacheStats(); misses == 0 {
		t.Fatal("queries read no page: the node cache hid the store entirely")
	}
}

// TestPageBufferBatchWritesEachPageOnce runs batches whose descents read
// more clean pages than the buffer's 32-page bound while dirtying fewer. A
// clean read is never buffered, so it cannot push a dirty page out early:
// each batch writes every page it dirtied exactly once, at its commit.
func TestPageBufferBatchWritesEachPageOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	// Dense, heavily overlapping objects: a delete's descent searches
	// several subtrees, so a batch reads more pages than it dirties.
	const span = 60
	objs := makeObjects(3000, span, rng)
	wc := &writeCounter{Store: pagefile.NewMemStore(), writes: make(map[pagefile.PageID]int)}
	tree := bulkTree(t, Options{Dim: 2, Store: wc, BufferPages: 32}, objs)
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	next, victim := int64(len(objs)), 0
	for b := 0; b < 5; b++ {
		wc.reset()
		_, misses0 := tree.CacheStats()
		o := makeObjects(1, span, rng)[0]
		o.ID = next
		next++
		if err := tree.Insert(o); err != nil {
			t.Fatal(err)
		}
		// Delete until the batch has read more clean pages than the bound.
		for {
			if _, misses := tree.CacheStats(); misses-misses0 > 32 {
				break
			}
			v := objs[victim*37%len(objs)]
			victim++
			if err := tree.Delete(v.ID); err != nil {
				t.Fatal(err)
			}
		}
		if dirty := tree.pool.Dirty(); dirty >= 32 {
			t.Fatalf("batch %d dirtied %d pages, want fewer than the 32-page bound", b, dirty)
		}
		if err := tree.Commit(); err != nil {
			t.Fatal(err)
		}
		for id, n := range wc.reset() {
			if n != 1 {
				t.Errorf("batch %d wrote page %d %d times, want once", b, id, n)
			}
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
