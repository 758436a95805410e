package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/pagefile"
)

// committedTree inserts objs into a new 2-D tree and commits them.
func committedTree(t *testing.T, objs []Object) *Tree {
	t.Helper()
	tree := buildTree(t, UTree, objs, 0)
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestCheckInvariantsChecksDirectory: the writer's CheckInvariants finds a
// directory entry at another record's address, one for an ID in no leaf and
// a leaf entry whose ID the directory lacks.
func TestCheckInvariantsChecksDirectory(t *testing.T) {
	objs := makeObjects(300, 1000, rand.New(rand.NewSource(46)))
	tree := committedTree(t, objs)
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	a, _ := tree.RecordAddr(objs[0].ID)
	b, _ := tree.RecordAddr(objs[1].ID)
	for _, c := range []struct {
		name string
		id   int64
		addr DataAddr
		live bool
		want string
	}{
		{"another record's address", objs[0].ID, b, true, "the directory has"},
		{"an ID in no leaf", 99999, a, true, "leaf entries"},
		{"a leaf's ID missing", objs[0].ID, a, false, "the directory has"},
	} {
		tree.corruptDirectory(c.id, c.addr, c.live)
		if err := tree.CheckInvariants(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: CheckInvariants = %v, want an error saying %q", c.name, err, c.want)
		}
		tree.corruptDirectory(99999, a, false)
		tree.corruptDirectory(objs[0].ID, a, true)
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("%s repaired: %v", c.name, err)
		}
	}
}

// TestDirectoryRollback: Rollback puts the directory back as the last
// Commit left it — after inserts and deletes, after a BulkLoad, and after
// deletes that emptied the tree for a BulkLoad — and Commit drops the
// journal with its memory.
func TestDirectoryRollback(t *testing.T) {
	objs := makeObjects(200, 1000, rand.New(rand.NewSource(47)))
	tree := committedTree(t, objs[:100])
	want := maps.Collect(tree.dir.all())
	same := func(what string) {
		t.Helper()
		if tree.Uncommitted() != 0 || !maps.Equal(maps.Collect(tree.dir.all()), want) {
			t.Fatalf("%s: %d uncommitted, %d IDs; want 0 and the committed %d", what, tree.Uncommitted(), tree.Len(), len(want))
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}

	for _, o := range objs[100:150] {
		if err := tree.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	for _, o := range objs[:30] {
		if err := tree.Delete(o.ID); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Insert(objs[0]); err != nil { // deleted, then back
		t.Fatal(err)
	}
	if n := tree.Uncommitted(); n != 81 {
		t.Fatalf("%d uncommitted mutations, want 81", n)
	}
	if err := tree.Rollback(); err != nil {
		t.Fatal(err)
	}
	same("inserts and deletes rolled back")

	for _, o := range objs[:100] {
		if err := tree.Delete(o.ID); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.BulkLoad(objs[100:]); err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert(objs[0]); err != nil {
		t.Fatal(err)
	}
	if n := tree.Uncommitted(); n != 102 {
		t.Fatalf("%d uncommitted mutations, want 102 (100 deletes, a load, an insert)", n)
	}
	if err := tree.Rollback(); err != nil {
		t.Fatal(err)
	}
	same("deletes, a load and an insert rolled back")

	for _, o := range objs[100:] {
		if err := tree.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	if tree.Uncommitted() != 0 || tree.undo != nil {
		t.Fatalf("after a commit: %d uncommitted, a journal of capacity %d", tree.Uncommitted(), cap(tree.undo))
	}

	empty, err := New(Options{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := empty.BulkLoad(objs); err != nil {
		t.Fatal(err)
	}
	if err := empty.Rollback(); err != nil {
		t.Fatal(err)
	}
	if empty.Len() != 0 || empty.Uncommitted() != 0 {
		t.Fatalf("a rolled-back load left %d IDs, %d uncommitted", empty.Len(), empty.Uncommitted())
	}
}

// TestDuplicateIDRefused: an Insert of a live ID and a BulkLoad naming an
// ID twice are ErrDuplicateID, and neither writes a page or changes the
// directory; the tree takes the IDs afterwards.
func TestDuplicateIDRefused(t *testing.T) {
	objs := makeObjects(100, 1000, rand.New(rand.NewSource(48)))
	tree, err := New(Options{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	pages := tree.store.NumPages()
	twice := append(objs[:len(objs):len(objs)], Object{ID: objs[7].ID, PDF: objs[8].PDF})
	if err := tree.BulkLoad(twice); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("BulkLoad naming id %d twice: %v, want ErrDuplicateID", objs[7].ID, err)
	}
	if tree.Len() != 0 || tree.Uncommitted() != 0 || tree.store.NumPages() != pages {
		t.Fatalf("refused load: %d IDs, %d uncommitted, %d pages (was %d)", tree.Len(), tree.Uncommitted(), tree.store.NumPages(), pages)
	}
	if err := tree.BulkLoad(objs); err != nil {
		t.Fatal(err)
	}
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	pages = tree.store.NumPages()
	if err := tree.Insert(Object{ID: objs[3].ID, PDF: objs[4].PDF}); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("Insert of live id %d: %v, want ErrDuplicateID", objs[3].ID, err)
	}
	if tree.Len() != len(objs) || tree.Uncommitted() != 0 || tree.store.NumPages() != pages || len(tree.dirty) != 0 {
		t.Fatalf("refused insert: %d IDs, %d uncommitted, %d pages (was %d), %d dirty", tree.Len(), tree.Uncommitted(), tree.store.NumPages(), pages, len(tree.dirty))
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDirectoryModel runs seeded histories of inserts, deletes, refused
// mutations, rolled-back batches, commits and reopens of a file tree — IDs
// at both ends of int64 and negative ones among them — against a map
// model. After every step Len, Holds, RecordAddr and CheckInvariants agree
// with the model, and an address, once given, stays the object's; each
// history's commits compact the directory several times, and leave it
// alone below the threshold.
func TestDirectoryModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { directoryHistory(t, seed) })
	}
}

func directoryHistory(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	pool := makeObjects(320, 1000, rng)
	ids := map[int64]bool{}
	for i, id := range []int64{math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1, -1, 0, 1} {
		pool[i].ID, ids[id] = id, true
	}
	for i := 7; i < len(pool); i++ {
		for pool[i].ID = rng.Int63n(1<<40) - 1<<39; ids[pool[i].ID]; pool[i].ID = rng.Int63n(1<<40) - 1<<39 {
		}
		ids[pool[i].ID] = true
	}

	path := filepath.Join(t.TempDir(), "dir.idx")
	fs, err := pagefile.CreateFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { fs.Close() }()
	tree, err := New(Options{Dim: 2, Store: fs, Persist: true})
	if err != nil {
		t.Fatal(err)
	}
	meta := tree.MetaPage()

	model, committed := map[int64]DataAddr{}, map[int64]DataAddr{}
	step := "bulk load"
	agree := func() {
		t.Helper()
		if tree.Len() != len(model) {
			t.Fatalf("seed %d, %s: Len %d, the model holds %d", seed, step, tree.Len(), len(model))
		}
		for _, o := range pool {
			want, live := model[o.ID]
			addr, ok := tree.RecordAddr(o.ID)
			if tree.Holds(o.ID) != live || ok != live || live && addr != want {
				t.Fatalf("seed %d, %s: object %d: Holds %v, RecordAddr %+v %v; the model has %+v %v", seed, step, o.ID, tree.Holds(o.ID), addr, ok, want, live)
			}
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("seed %d, %s: %v", seed, step, err)
		}
	}
	// insert and remove act on the tree and, where it takes the
	// mutation, on the model.
	insert := func(o Object) {
		t.Helper()
		err := tree.Insert(o)
		if _, live := model[o.ID]; live {
			if !errors.Is(err, ErrDuplicateID) {
				t.Fatalf("seed %d: Insert of live %d: %v, want ErrDuplicateID", seed, o.ID, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("seed %d: Insert %d: %v", seed, o.ID, err)
		}
		model[o.ID], _ = tree.RecordAddr(o.ID)
	}
	remove := func(id int64) {
		t.Helper()
		err := tree.Delete(id)
		if _, live := model[id]; !live {
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("seed %d: Delete of absent %d: %v, want ErrNotFound", seed, id, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("seed %d: Delete %d: %v", seed, id, err)
		}
		delete(model, id)
	}
	mutate := func() {
		o := pool[rng.Intn(len(pool))]
		if rng.Intn(2) == 0 {
			step = fmt.Sprintf("insert %d", o.ID)
			insert(o)
		} else {
			step = fmt.Sprintf("delete %d", o.ID)
			remove(o.ID)
		}
	}

	var load []Object
	for _, o := range pool {
		if rng.Intn(2) == 0 {
			load = append(load, o)
		}
	}
	if err := tree.BulkLoad(load); err != nil {
		t.Fatal(err)
	}
	for _, o := range load {
		model[o.ID], _ = tree.RecordAddr(o.ID)
	}
	compactions, kept := 0, 0
	for i := 0; i < 1200; i++ {
		switch r := rng.Intn(100); {
		case r < 84:
			mutate()
		case r < 90:
			step = "rolled-back batch"
			for k := rng.Intn(12); k >= 0; k-- {
				mutate()
			}
			if err := tree.Rollback(); err != nil {
				t.Fatal(err)
			}
			step, model = "rollback", maps.Clone(committed)
		case r < 98:
			due := len(tree.dir.recent)+tree.dir.dead > len(tree.dir.ids)/16
			rows := len(tree.dir.ids)
			if err := tree.Commit(); err != nil {
				t.Fatal(err)
			}
			step, committed = "commit", maps.Clone(model)
			switch {
			case due && (len(tree.dir.recent) != 0 || tree.dir.dead != 0):
				t.Fatalf("seed %d: a commit past the threshold left %d recent IDs and %d deleted rows", seed, len(tree.dir.recent), tree.dir.dead)
			case due:
				compactions++
			case len(tree.dir.ids) != rows:
				t.Fatalf("seed %d: a commit below the threshold rebuilt the slabs (%d rows, was %d)", seed, len(tree.dir.ids), rows)
			default:
				kept++
			}
		default:
			if err := fs.Close(); err != nil {
				t.Fatal(err)
			}
			if fs, err = pagefile.OpenFileStore(path); err != nil {
				t.Fatal(err)
			}
			var reach map[pagefile.PageID]bool
			if tree, reach, err = Open(fs, meta, Options{}); err != nil {
				t.Fatalf("seed %d: reopen: %v", seed, err)
			}
			fs.Retain(reach)
			step, model = "reopen", maps.Clone(committed)
		}
		agree()
	}
	if compactions < 3 || kept == 0 {
		t.Fatalf("seed %d: %d commits compacted the directory and %d left it, want at least 3 and 1", seed, compactions, kept)
	}
}

// TestOpenRefusesIDNamedTwice: a file whose second leaf repeats an ID of
// its first fails Open with ErrBadPage naming that leaf and the ID.
func TestOpenRefusesIDNamedTwice(t *testing.T) {
	tree, err := New(Options{Dim: 2, Persist: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.BulkLoad(makeObjects(400, 1000, rand.New(rand.NewSource(49)))); err != nil {
		t.Fatal(err)
	}
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	var leaves []*node
	if err := tree.walk(tree.rootPage, tree.rootLevel, func(n *node) error {
		if n.leaf() {
			leaves = append(leaves, n)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(leaves) < 2 {
		t.Fatalf("fixture: %d leaves, want two or more", len(leaves))
	}
	// A leaf entry begins with its ID.
	dup, second := leaves[0].entries[0].id, leaves[1].page
	buf := storedPage(t, tree.store, second)
	binary.LittleEndian.PutUint64(buf[nodeHeader:], uint64(dup))
	if err := tree.store.Write(second, buf); err != nil {
		t.Fatal(err)
	}

	_, _, err = Open(tree.store, tree.MetaPage(), Options{})
	var bad *pagefile.BadPageError
	if !errors.As(err, &bad) || bad.Page != second || !strings.Contains(err.Error(), fmt.Sprint(dup)) {
		t.Fatalf("Open of leaves naming %d twice: %v, want ErrBadPage naming page %d and the ID", dup, err, second)
	}
}

// TestDirectoryFootprint: the directory of a bulk-loaded tree of 10,600
// objects, and of the same tree after a commit compacted it, takes at most
// 15 bytes of slab an object (a Go map of the same IDs took 27.9).
func TestDirectoryFootprint(t *testing.T) {
	objs := makeObjects(10600+800, 10000, rand.New(rand.NewSource(50)))
	tree := bulkTree(t, Options{Dim: 2}, objs[:10600])
	perObject := func(what string) {
		t.Helper()
		d := &tree.dir
		bytes := 8*cap(d.ids) + 4*cap(d.pages) + 2*cap(d.slots) // int64, pagefile.PageID, uint16
		if b := float64(bytes) / float64(tree.Len()); len(d.recent) != 0 || b > 15 {
			t.Fatalf("after %s: %.2f bytes of slab an object and %d recent IDs, want at most 15 and none", what, b, len(d.recent))
		}
	}
	perObject("a bulk load")
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	// 1,600 changes, past a sixteenth of the rows (662).
	for _, o := range objs[10600:] {
		if err := tree.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	for _, o := range objs[:800] {
		if err := tree.Delete(o.ID); err != nil {
			t.Fatal(err)
		}
	}
	rows := &tree.dir.ids[0]
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	if &tree.dir.ids[0] == rows || tree.Len() != 10600 {
		t.Fatalf("the commit did not compact the directory (%d objects)", tree.Len())
	}
	perObject("a compaction")
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
