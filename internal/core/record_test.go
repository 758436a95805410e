package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/pagefile"
	"repro/internal/updf"
)

// checkRecordForms reads the record of every object in the tree and
// requires the form encodeObject promises: keyed — 11 bytes and the centre
// — exactly when the leaf entry names a shape whose prototype is a
// updf.Recentrer, full otherwise; and either way a record that decodes
// against the tree's table to the object as inserted, bit for bit, at the
// address the directory holds for it. It returns the number of keyed
// records.
func checkRecordForms(t *testing.T, tree *Tree, objs map[int64]Object) (keyed int) {
	t.Helper()
	seen := 0
	err := tree.walk(tree.rootPage, tree.rootLevel, func(n *node) error {
		if !n.leaf() {
			return nil
		}
		for i := range n.entries {
			e := &n.entries[i]
			o := objs[e.id]
			rec, err := tree.data.Read(e.addr)
			if err != nil {
				t.Fatalf("object %d: %v", e.id, err)
			}
			_, recentrable := o.PDF.(updf.Recentrer)
			want := e.shape != 0 && recentrable
			if got := rec[8] == keyedTag; got != want || got && len(rec) != keyedHeader+8*tree.dim {
				t.Fatalf("object %d (%T, shape %d): a %d-byte record, keyed %v; want keyed %v", e.id, o.PDF, e.shape, len(rec), got, want)
			}
			if want {
				keyed++
			}
			back, err := decodeObject(rec, tree.shapes)
			if err != nil || back.ID != e.id {
				t.Fatalf("object %d's record decodes as %d, err %v", e.id, back.ID, err)
			}
			a, _ := updf.Encode(back.PDF)
			b, _ := updf.Encode(o.PDF)
			if !bytes.Equal(a, b) {
				t.Fatalf("object %d reads back as %x, was %x", e.id, a, b)
			}
			if a, ok := tree.RecordAddr(e.id); !ok || a != e.addr {
				t.Fatalf("object %d at %+v, the directory has %+v (live %v)", e.id, e.addr, a, ok)
			}
			seen++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != len(objs) {
		t.Fatalf("%d leaf entries, %d objects", seen, len(objs))
	}
	return keyed
}

// TestKeyedRecords: in a tree of every family, balls whose shape is in the
// table get keyed records and every other object — rectangles, Gaussian and
// exponential boxes and polygons, whose shapes are in the table too, and
// the unkeyed histograms and mixtures — the full one; every record reads
// back as the object inserted, before and after the tree is reopened, and
// queries on the reopened tree answer as on the tree that wrote it.
func TestKeyedRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	list := shapedObjects(900, 500, rng)
	objs := make(map[int64]Object, len(list))
	for _, o := range list {
		objs[o.ID] = o
	}
	store := pagefile.NewMemStore()
	tree := bulkTree(t, Options{Dim: 2, Store: store, Persist: true}, list[:600])
	for _, o := range list[600:] {
		if err := tree.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	// Objects with a shape reference, by family, and objects without.
	families := map[string]int{}
	for id, ref := range leafShapes(t, tree) {
		if ref != 0 {
			families[fmt.Sprintf("%T", objs[id].PDF)]++
		} else {
			families["none"]++
		}
	}
	for _, f := range []string{"*updf.UniformBall", "*updf.ConGauBall", "*updf.UniformRect", "*updf.GaussRect", "*updf.ExpoRect", "*updf.UniformPolygon", "none"} {
		if families[f] == 0 {
			t.Fatalf("no object of family %q in the fixture (%v)", f, families)
		}
	}
	balls := families["*updf.UniformBall"] + families["*updf.ConGauBall"]
	keyed := checkRecordForms(t, tree, objs)
	if keyed != balls {
		t.Fatalf("%d keyed records, %d balls", keyed, balls)
	}
	re, _, err := Open(store, tree.MetaPage(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if again := checkRecordForms(t, re, objs); again != keyed {
		t.Fatalf("%d keyed records after reopening, %d before", again, keyed)
	}
	if err := re.Snapshot().CheckRecords(); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 30; k++ {
		q := Query{Rect: randomQueryRect(rng, 500), Prob: 0.05 + 0.9*rng.Float64()}
		want, _, err1 := rangeQuery(tree, q)
		got, _, err2 := rangeQuery(re, q)
		if err1 != nil || err2 != nil || !sameResults(got, want) {
			t.Fatalf("query %d: reopened tree answers %v (%v), the writer %v (%v)", k, got, err2, want, err1)
		}
	}
	c := geom.Point{250, 250}
	want, _, err1 := nearestNeighbors(tree, c, 10)
	got, _, err2 := nearestNeighbors(re, c, 10)
	if err1 != nil || err2 != nil || len(got) != len(want) {
		t.Fatalf("k-NN: %v (%v) after reopening, %v (%v) before", got, err2, want, err1)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("k-NN neighbour %d: %+v after reopening, %+v before", i, got[i], want[i])
		}
	}
}

// sameResults reports whether two answers are equal result for result.
func sameResults(a, b []Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestKeyedRecordDamage: a keyed record the reading epoch's table cannot
// resolve — a shape reference of 0 or beyond the table, one naming a shape
// that cannot be recentred, a record a byte short or a byte long — fails
// every reader with ErrCorruptPDF: a range query and a k-NN query that
// refine it, a Delete (which reads it for its MBR) and CheckRecords. Never a panic,
// never an answer from a pdf the record does not hold.
func TestKeyedRecordDamage(t *testing.T) {
	setRef := func(ref uint16) func(page []byte, slotEntry int) {
		return func(page []byte, slotEntry int) {
			off := binary.LittleEndian.Uint16(page[slotEntry:])
			binary.LittleEndian.PutUint16(page[off+9:], ref)
		}
	}
	resize := func(delta int) func(page []byte, slotEntry int) {
		return func(page []byte, slotEntry int) {
			ln := int(binary.LittleEndian.Uint16(page[slotEntry+2:]))
			binary.LittleEndian.PutUint16(page[slotEntry+2:], uint16(ln+delta))
		}
	}
	for name, edit := range map[string]func(page []byte, slotEntry int){
		"reference 0":                 setRef(0),
		"reference beyond":            setRef(0xFFFF),
		"shape not recentrable":       setRef(2), // the rectangle shape
		"record a byte short":         resize(-1),
		"record a byte long":          resize(+1),
		"record cut in its reference": resize(10 - 27), // 10 of 27 bytes
	} {
		t.Run(name, func(t *testing.T) {
			tree, err := New(Options{Dim: 2})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			var victim Object
			var addr pagefile.DataAddr
			for i := 0; i < 300; i++ {
				c := geom.Point{float64(rng.Intn(300)), float64(rng.Intn(300))} // one rectangle shape
				p := updf.PDF(updf.NewUniformBall(c, 20))
				if i%2 == 1 {
					p = updf.NewUniformRect(geom.NewRect(c, geom.Point{c[0] + 30, c[1] + 20}))
				}
				if err := tree.Insert(Object{ID: int64(i), PDF: p}); err != nil {
					t.Fatal(err)
				}
				if i == 100 {
					victim = Object{ID: int64(i), PDF: p}
					addr, _ = tree.RecordAddr(victim.ID)
				}
			}
			if err := tree.Commit(); err != nil {
				t.Fatal(err)
			}
			if len(tree.shapes) != 2 || tree.shapes[1].pdf.ShapeKey()[:5] != "urect" {
				t.Fatalf("fixture table: %d shapes", len(tree.shapes))
			}
			damageRecord(t, tree, addr, edit)

			isCorrupt := func(what string, err error) {
				t.Helper()
				if !errors.Is(err, updf.ErrCorruptPDF) {
					t.Fatalf("%s: %v, want ErrCorruptPDF", what, err)
				}
			}
			snap := tree.Snapshot()
			defer snap.Close()
			// The lower-left quarter of the ball holds a quarter of it, which
			// its marginals bracket by [0, 0.5]: only the record decides.
			quarter := victim.PDF.MBR()
			quarter.Hi = victim.PDF.Center().Clone()
			_, _, err = snap.RangeQuery(context.Background(), Query{Rect: quarter, Prob: 0.2}, QueryOpts{})
			isCorrupt("range query", err)
			_, _, err = snap.NearestNeighbors(context.Background(), victim.PDF.Center(), 3, QueryOpts{})
			isCorrupt("k-NN query", err)
			isCorrupt("Delete", tree.Delete(victim.ID))
			isCorrupt("CheckRecords", snap.CheckRecords())
		})
	}
}

// BenchmarkDecodeRecord decodes one 2-D ball's data record: the full form
// (updf.Decode of tag, dimensionality, centre and radius) against the keyed
// one (the centre and a shape reference, the prototype recentred).
func BenchmarkDecodeRecord(b *testing.B) {
	table := fuzzShapes(2)
	o := Object{ID: 7, PDF: table[1].pdf.(updf.Recentrer).Recentred(geom.Point{812.5, 90.25})}
	for _, bc := range []struct {
		name string
		ref  uint16
	}{{"full", 0}, {"keyed", 2}} {
		rec, err := encodeObject(o, bc.ref, table)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := decodeObject(rec, table); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
