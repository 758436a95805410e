package core

import (
	"math/rand"
	"testing"
)

// TestCondenseKeepsOrphansBelowRoot deletes every object of U-PCR trees
// whose nodes hold two to five entries — the smallest fan-out New allows
// with inner orphans, so condensing removes intermediate nodes and
// collapses the root often — bulk-loaded and inserted, of height four or
// more. Every delete must reinsert its orphans at or below the root
// (condense refuses one above it), and leave a tree that passes
// CheckInvariants — minimum fills, an intermediate root of two entries or
// more — and answers as brute force does.
func TestCondenseKeepsOrphansBelowRoot(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	objs := makeObjects(500, 1000, rng)
	for _, build := range []string{"bulk", "insert"} {
		tree, err := New(Options{Dim: 2, Kind: UPCR, CatalogSize: 25})
		if err != nil {
			t.Fatal(err)
		}
		if leaf, inner := tree.Fanout(); leaf != 5 || inner != 5 {
			t.Fatalf("fan-outs %d and %d, want 5 and 5", leaf, inner)
		}
		if build == "bulk" {
			err = tree.BulkLoad(objs)
		} else {
			for _, o := range objs {
				if err = tree.Insert(o); err != nil {
					break
				}
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		if h := tree.Height(); h < 4 {
			t.Fatalf("%s: height %d, want 4 or more", build, h)
		}
		live := make(map[int64]Object, len(objs))
		for _, o := range objs {
			live[o.ID] = o
		}
		collapses, height := 0, tree.Height()
		for k, i := range rng.Perm(len(objs)) {
			if err := tree.Delete(objs[i].ID); err != nil {
				t.Fatalf("%s: delete %d (%d of %d): %v", build, objs[i].ID, k+1, len(objs), err)
			}
			delete(live, objs[i].ID)
			if err := tree.CheckInvariants(); err != nil {
				t.Fatalf("%s after %d deletes: %v", build, k+1, err)
			}
			if h := tree.Height(); h < height {
				collapses, height = collapses+1, h
			}
			if k%50 != 49 {
				continue
			}
			rest := make([]Object, 0, len(live))
			for _, o := range objs {
				if _, ok := live[o.ID]; ok {
					rest = append(rest, o)
				}
			}
			scan := NewScan(rest, 9)
			for q := 0; q < 10; q++ {
				query := Query{Rect: randomQueryRect(rng, 1000), Prob: 0.05 + rng.Float64()*0.9}
				got, _, err := rangeQuery(tree, query)
				if err != nil {
					t.Fatal(err)
				}
				if want := scan.BruteForce(query); !sameIDs(resultIDs(got), resultIDs(want)) {
					t.Fatalf("%s after %d deletes, query %v: got %v want %v", build, k+1, query, resultIDs(got), resultIDs(want))
				}
			}
		}
		if tree.Len() != 0 || tree.Height() != 1 {
			t.Fatalf("%s: %d objects and height %d after deleting all", build, tree.Len(), tree.Height())
		}
		if collapses < 3 {
			t.Fatalf("%s: the root collapsed %d times; the fixture no longer shrinks the tree level by level", build, collapses)
		}
	}
}
