package core

import (
	"errors"
	"maps"
	"math/rand"
	"strings"
	"testing"
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
	want := maps.Clone(tree.dir)
	same := func(what string) {
		t.Helper()
		if tree.Uncommitted() != 0 || !maps.Equal(tree.dir, want) {
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
