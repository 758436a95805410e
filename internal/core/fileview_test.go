package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/pagefile"
)

// Readers of a tree on a bare FileStore view its committed node pages in
// the file's read-only mapping (readCommitted, FileStore.View).

// fileViewTree bulk loads n objects onto a fresh page file and commits
// them; it skips where the file is not mapped.
func fileViewTree(t *testing.T, n int) (*Tree, *pagefile.FileStore, viewer) {
	t.Helper()
	fs, err := pagefile.CreateFileStore(filepath.Join(t.TempDir(), "view.idx"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	v, ok := pagefile.Store(fs).(viewer)
	if !ok {
		t.Skip("the page file is not mapped on this platform")
	}
	tree, _ := epochTree(t, Options{Store: fs, Persist: true}, n)
	return tree, fs, v
}

// everything covers every object epochTree makes.
var everything = Query{Rect: geom.NewRect(geom.Point{-100, -100}, geom.Point{3200, 3200}), Prob: 0.3}

// TestFileViewCachedNodesInMapping: after a warm query pass every node the
// cache holds views its page in the file's mapping — the bytes View
// returns, not a copy — and the cache costs under 1 KB of Go heap a node
// (a node that owned its page's 4,096-byte buffer cost about 4.2 KB).
func TestFileViewCachedNodesInMapping(t *testing.T) {
	tree, _, v := fileViewTree(t, 4000)
	warm := func() int {
		t.Helper()
		if _, _, err := rangeQuery(tree, everything); err != nil {
			t.Fatal(err)
		}
		return len(tree.cachedNodes())
	}

	cached := warm()
	if cached < 40 {
		t.Fatalf("a warm pass cached %d nodes, want at least 40", cached)
	}
	var full, empty runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&full)
	tree.attachNodeCache(0)
	runtime.GC()
	runtime.ReadMemStats(&empty)
	per := (int64(full.HeapAlloc) - int64(empty.HeapAlloc)) / int64(cached)
	t.Logf("%d cached nodes hold %d B of heap each", cached, per)
	if per >= 1024 {
		t.Errorf("%d cached nodes hold %d B of heap each, want under 1 KB", cached, per)
	}

	if got := warm(); got != cached {
		t.Fatalf("the second warm pass cached %d nodes, the first %d", got, cached)
	}
	for _, n := range tree.cachedNodes() {
		page, err := v.View(n.page)
		if err != nil {
			t.Fatal(err)
		}
		if &page[0] != &n.buf[0] || len(n.buf) != pagefile.PageSize {
			t.Fatalf("cached node %d does not view its page in the mapping", n.page)
		}
	}
}

// TestFileViewChecksumFailsTyped: a flipped bit in a committed node page
// fails every query that reaches it with a *ChecksumError naming the page,
// the view checked anew each time, and leaves no node of it cached.
func TestFileViewChecksumFailsTyped(t *testing.T) {
	tree, fs, _ := fileViewTree(t, 600)
	tree.attachNodeCache(0) // cold
	victim := tree.rootPage
	if err := fs.CorruptPayload(victim, 8*20+3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		_, _, err := rangeQuery(tree, everything)
		var ce *pagefile.ChecksumError
		if !errors.As(err, &ce) || ce.Page != victim {
			t.Fatalf("query %d: %v, want a checksum error naming page %d", i, err, victim)
		}
	}
	if _, ok := tree.ncache.get(victim); ok {
		t.Fatal("the corrupt page's node was cached")
	}
}

// TestFileViewSurvivesGrowth: a view taken while the file lies inside its
// first mapped region reads the same bytes after the file has grown past
// that region and 100 commits have gone by, and its pinned snapshot
// answers as before; the tree's new pages, viewed in the next region,
// answer as a memory twin does.
func TestFileViewSurvivesGrowth(t *testing.T) {
	tree, fs, _ := fileViewTree(t, 600)
	twin, _ := epochTree(t, Options{}, 600)
	snap := tree.Snapshot()
	defer snap.Close() // pins the viewed pages
	held, err := tree.readCommitted(tree.rootPage, tree.rootLevel)
	if err != nil {
		t.Fatal(err)
	}
	before := slices.Clone(held.buf)
	want, _, err := snap.RangeQuery(context.Background(), everything, QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}

	// Reserve pages past the first region (4,096 pages wherever the OS
	// page is at most 32 KiB), write the last so the file reaches it, and
	// free them all: the allocator hands them out last in, first out, so
	// the tree's next pages come from past the region.
	ids := make([]pagefile.PageID, 4200)
	for i := range ids {
		if ids[i], err = fs.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Write(ids[len(ids)-1], make([]byte, pagefile.PageSize)); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if err := fs.Free(id); err != nil {
			t.Fatal(err)
		}
	}

	more := makeObjects(100, 3000, rand.New(rand.NewSource(52)))
	past := false // a root the readers viewed lay past the first region
	for i, o := range more {
		o.ID += 1 << 20
		for _, tr := range []*Tree{tree, twin} {
			if err := tr.Insert(o); err != nil {
				t.Fatal(err)
			}
		}
		past = past || tree.rootPage >= 4096
		q := Query{Rect: geom.NewRect(geom.Point{float64(i) * 25, 0}, geom.Point{float64(i)*25 + 600, 3000}), Prob: 0.4}
		got, _, err := rangeQuery(tree, q)
		if err != nil {
			t.Fatal(err)
		}
		if exp, _, err := rangeQuery(twin, q); err != nil || !reflect.DeepEqual(got, exp) {
			t.Fatalf("commit %d: file tree answers %v, memory twin %v (err %v)", i, got, exp, err)
		}
	}
	if !past {
		t.Fatal("no root lay past the first region: the file did not grow past it")
	}
	if !bytes.Equal(held.buf, before) {
		t.Fatal("the view taken before the file grew reads other bytes")
	}
	if got, _, err := snap.RangeQuery(context.Background(), everything, QueryOpts{}); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("the pinned snapshot answers %d results (err %v), want %d", len(got), err, len(want))
	}
}
