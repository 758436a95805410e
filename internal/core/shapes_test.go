package core

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/pagefile"
	"repro/internal/updf"
)

// shapedObjects is a dataset in the paper's mould: n objects of a handful of
// shapes — every keyed family among them, rectangles on a lattice where
// hi − lo comes out the same wherever they lie — plus, every tenth object, a
// histogram or a mixture, which have no ShapeKey.
func shapedObjects(n int, span float64, rng *rand.Rand) []Object {
	objs := make([]Object, n)
	for i := range objs {
		x, y := float64(rng.Intn(int(span*8)))/8, float64(rng.Intn(int(span*8)))/8
		c, box := geom.Point{x, y}, geom.NewRect(geom.Point{x - 16, y - 12}, geom.Point{x + 16, y + 12})
		var p updf.PDF
		switch i % 10 {
		case 0, 1, 2:
			p = updf.NewUniformBall(c, 25)
		case 3, 4:
			p = updf.NewConGauBall(c, 25, 12.5)
		case 5:
			p = updf.NewUniformRect(box)
		case 6:
			p = updf.NewGaussRect(box, geom.Point{x + 4, y - 2}, []float64{10, 14})
		case 7:
			p = updf.NewExpoRect(box, []float64{0.05, 0.02})
		case 8:
			x, y = 6*float64(rng.Intn(int(span/6))), 6*float64(rng.Intn(int(span/6)))
			p = updf.NewUniformPolygon([]geom.Point{{x + 30, y}, {x + 12, y + 18}, {x - 12, y + 18}, {x - 30, y}, {x - 12, y - 18}, {x + 12, y - 18}})
		default:
			if i%20 == 9 {
				p = updf.NewHistogramRect(box, []int{2, 2}, []float64{1, 2, 3, 4})
			} else {
				p = updf.NewMixture([]updf.PDF{updf.NewUniformBall(c, 8), updf.NewUniformRect(box)}, []float64{2, 1})
			}
		}
		objs[i] = Object{ID: int64(i), PDF: p}
	}
	return objs
}

// leafShapes returns the shape reference of every object in the tree.
func leafShapes(t *testing.T, tree *Tree) map[int64]uint16 {
	t.Helper()
	refs := make(map[int64]uint16)
	if err := tree.walk(tree.rootPage, tree.rootLevel, func(n *node) error {
		for i := range n.entries {
			if n.leaf() {
				refs[n.entries[i].id] = n.entries[i].shape
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return refs
}

// queryWithoutShapes answers q on the snapshot's tree as if no leaf entry
// named a shape: every candidate's record is read, as before the table.
// The table stays, for the keyed records to decode against.
func queryWithoutShapes(t *testing.T, snap *Snapshot, q Query) ([]Result, QueryStats) {
	t.Helper()
	res, stats, err := snap.t.rangeQuery(context.Background(), snap.st, q, QueryOpts{noShapeTest: true})
	if err != nil {
		t.Fatal(err)
	}
	return res, stats
}

// TestShapeDecisionsChangeNothingButReads: with the table, a query returns
// what it returns without it — the same results in the same order with the
// same probabilities — and every count
// but the records read is the same; what the leaf decides is what the record
// would have decided. Objects without a ShapeKey carry no reference and are
// refined from their records; both tree kinds, loaded both ways.
func TestShapeDecisionsChangeNothingButReads(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Options
		bulk bool
	}{
		{"utree-bulk-exact", Options{Dim: 2}, true},
		{"utree-insert-mc", Options{Dim: 2, MCSamples: 300}, false},
		{"upcr-bulk-mc", Options{Dim: 2, Kind: UPCR, MCSamples: 300}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			objs := shapedObjects(1500, 600, rng)
			var tree *Tree
			if tc.bulk {
				tree = bulkTree(t, tc.opt, objs)
			} else {
				tree, _ = New(tc.opt)
				for _, o := range objs {
					if err := tree.Insert(o); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := tree.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := tree.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if len(tree.shapes) != 6 {
				t.Fatalf("%d shapes in the table, the dataset has 6", len(tree.shapes))
			}
			for id, ref := range leafShapes(t, tree) {
				if keyed := objs[id].PDF.ShapeKey() != ""; keyed != (ref != 0) {
					t.Fatalf("object %d (%T, key %q) has shape reference %d", id, objs[id].PDF, objs[id].PDF.ShapeKey(), ref)
				} else if keyed && tree.shapes[ref-1].pdf.ShapeKey() != objs[id].PDF.ShapeKey() {
					t.Fatalf("object %d names shape %d, which is another shape", id, ref)
				}
			}
			snap := tree.Snapshot()
			defer snap.Close()
			if err := snap.CheckRecords(); err != nil {
				t.Fatal(err)
			}
			shaped, saved := 0, 0
			for k := 0; k < 60; k++ {
				q := Query{Rect: randomQueryRect(rng, 600), Prob: 0.05 + 0.9*rng.Float64()}
				got, gs, err := snap.RangeQuery(context.Background(), q, QueryOpts{})
				if err != nil {
					t.Fatal(err)
				}
				want, ws := queryWithoutShapes(t, snap, q)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("query %d: results differ with and without the shape table:\n with    %v\n without %v", k, got, want)
				}
				if gs.Candidates != gs.MarginalValidated+gs.MarginalPruned+gs.ProbComputations || gs.ShapeDecided > gs.MarginalValidated+gs.MarginalPruned {
					t.Fatalf("query %d: counters do not add up: %+v", k, gs)
				}
				if ws.ShapeDecided != 0 || gs.RefinementIOs > ws.RefinementIOs {
					t.Fatalf("query %d: %d data pages read with the table, %d without (%d decided on a shape that is not there)", k, gs.RefinementIOs, ws.RefinementIOs, ws.ShapeDecided)
				}
				shaped, saved = shaped+gs.ShapeDecided, saved+ws.RefinementIOs-gs.RefinementIOs
				gs.ShapeDecided, gs.RefinementIOs, ws.RefinementIOs = 0, 0, 0
				gs.FilterTime, gs.RefineTime, ws.FilterTime, ws.RefineTime = 0, 0, 0, 0
				gs.NodeCacheHits, gs.NodeCacheMisses, ws.NodeCacheHits, ws.NodeCacheMisses = 0, 0, 0, 0
				if gs != ws {
					t.Fatalf("query %d: counters differ beyond the reads:\n with    %+v\n without %+v", k, gs, ws)
				}
			}
			if shaped == 0 || saved <= 0 {
				t.Fatalf("the table decided %d candidates and saved %d page reads over 60 queries", shaped, saved)
			}
		})
	}
}

// TestShapeTablePersists: a reopened tree has the table the closed one had,
// decides on it, and enters the next new shape behind the old ones.
func TestShapeTablePersists(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	objs := shapedObjects(800, 500, rng)
	store := pagefile.NewMemStore()
	tree := bulkTree(t, Options{Dim: 2, Store: store, Persist: true}, objs)
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	re, _, err := Open(store, tree.MetaPage(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(re.shapes) != len(tree.shapes) || len(re.shapes) != 6 {
		t.Fatalf("reopened table has %d shapes, the closed one %d", len(re.shapes), len(tree.shapes))
	}
	for i := range re.shapes {
		if a, b := re.shapes[i], tree.shapes[i]; a.pdf.ShapeKey() != b.pdf.ShapeKey() || !a.mbr.Equal(b.mbr) || string(a.enc) != string(b.enc) {
			t.Fatalf("shape %d came back as %s %v, was %s %v", i+1, a.pdf.ShapeKey(), a.mbr, b.pdf.ShapeKey(), b.mbr)
		}
	}
	decided := 0
	for k := 0; k < 40; k++ {
		q := Query{Rect: randomQueryRect(rng, 500), Prob: 0.05 + 0.9*rng.Float64()}
		got, gs, err := rangeQuery(re, q)
		if err != nil {
			t.Fatal(err)
		}
		want, _, _ := rangeQuery(tree, q)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: the reopened tree answers differently", k)
		}
		decided += gs.ShapeDecided
	}
	if decided == 0 {
		t.Fatal("the reopened tree decided nothing on its shapes")
	}
	// An old shape keeps its reference, a new one goes behind the old ones,
	// and the next commit persists it.
	if err := re.Insert(Object{ID: 5000, PDF: updf.NewUniformBall(geom.Point{40, 40}, 25)}); err != nil {
		t.Fatal(err)
	}
	if err := re.Insert(Object{ID: 5001, PDF: updf.NewUniformBall(geom.Point{50, 50}, 3.5)}); err != nil {
		t.Fatal(err)
	}
	if refs := leafShapes(t, re); refs[5000] != leafShapes(t, tree)[0] || refs[5001] != 7 {
		t.Fatalf("references after reopening: old shape %d, new shape %d", refs[5000], refs[5001])
	}
	if err := re.Commit(); err != nil {
		t.Fatal(err)
	}
	again, _, err := Open(store, re.MetaPage(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(again.shapes) != 7 || again.shapes[6].pdf.ShapeKey() != "uball:d=2:r=3.5" {
		t.Fatalf("table after the second reopening: %d shapes", len(again.shapes))
	}
	if err := again.Snapshot().CheckRecords(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenOlderLayouts: files written before records could be keyed open,
// answer as they always did and are UTR8 files after their first commit,
// from which on a new ball gets a keyed record; old records stay full.
//   - UTR2, written before leaf entries held shape references: magic UTR2,
//     zeroes where the table and the references are, so it opens with an
//     empty table and decides nothing on shapes;
//   - UTR3: references and a table, but every record full.
func TestOpenOlderLayouts(t *testing.T) {
	for _, tc := range []struct {
		name  string
		magic uint32
	}{{"UTR2", metaMagicV2}, {"UTR3", metaMagicV3}} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(43))
			objs := shapedObjects(600, 500, rng)
			store := pagefile.NewMemStore()
			tree, err := New(Options{Dim: 2, Store: store, Persist: true})
			if err != nil {
				t.Fatal(err)
			}
			// What the older writer did: full records, and under UTR2 no
			// object had a ShapeKey to it. (Its UTR3 leaves held keyed
			// entries in full, as the UTR4 file TestOpenUTR4File opens
			// does, and its data pages were legacy ones, as TestOpenUTR7File's
			// are; these are written compact and dense, as this version
			// writes them.)
			entries, err := leafEntries(tree, objs)
			if err != nil {
				t.Fatal(err)
			}
			if tc.magic == metaMagicV2 {
				tree.setShapes(nil)
			}
			for i := range entries {
				if tc.magic == metaMagicV2 {
					entries[i] = tree.leafEntry(objs[i], 0, objs[i].PDF.MBR())
				}
				if entries[i].addr, err = tree.appendRecord(objs[i], 0); err != nil {
					t.Fatal(err)
				}
				if err := tree.insertEntry(entries[i], 0, make(map[int]bool)); err != nil {
					t.Fatal(err)
				}
				tree.dir.set(objs[i].ID, entries[i].addr)
			}
			if err := tree.Commit(); err != nil {
				t.Fatal(err)
			}
			meta := make([]byte, pagefile.PageSize)
			if err := store.Read(tree.MetaPage(), meta); err != nil {
				t.Fatal(err)
			}
			if tc.magic == metaMagicV2 {
				for _, b := range meta[metaFixed:] {
					if b != 0 {
						t.Fatal("a tree without shapes wrote something behind the fixed metadata fields")
					}
				}
			}
			binary.LittleEndian.PutUint32(meta, tc.magic)
			if err := store.Write(tree.MetaPage(), meta); err != nil {
				t.Fatal(err)
			}

			old, _, err := Open(store, tree.MetaPage(), Options{})
			if err != nil {
				t.Fatalf("opening a %s file: %v", tc.name, err)
			}
			if len(old.shapes) != len(tree.shapes) || old.Len() != len(objs) {
				t.Fatalf("%s file opened with %d shapes, %d objects", tc.name, len(old.shapes), old.Len())
			}
			if err := old.Snapshot().CheckRecords(); err != nil {
				t.Fatal(err)
			}
			scan := NewScan(objs, 9)
			queries := make([]Query, 30)
			answers := make([][]Result, len(queries))
			for k := range queries {
				queries[k] = Query{Rect: randomQueryRect(rng, 500), Prob: 0.05 + 0.9*rng.Float64()}
				got, gs, err := rangeQuery(old, queries[k])
				if err != nil {
					t.Fatal(err)
				}
				if !sameIDs(resultIDs(got), resultIDs(scan.BruteForce(queries[k]))) || (tc.magic == metaMagicV2 && gs.ShapeDecided != 0) {
					t.Fatalf("query %d on the %s file: wrong answer, or %d decided on shapes it does not have", k, tc.name, gs.ShapeDecided)
				}
				answers[k] = got
			}
			if err := store.Read(tree.MetaPage(), meta); err != nil {
				t.Fatal(err)
			}
			if binary.LittleEndian.Uint32(meta) != metaMagic {
				t.Fatal("the first commit (rangeQuery's) did not make the file UTR8")
			}
			near := Object{ID: 7000, PDF: updf.NewUniformBall(objs[0].PDF.Center(), 25)}
			if err := old.Insert(near); err != nil {
				t.Fatal(err)
			}
			addr, _ := old.RecordAddr(near.ID)
			if err := old.Commit(); err != nil {
				t.Fatal(err)
			}
			refs := leafShapes(t, old)
			if oldRef := map[uint32]uint16{metaMagicV2: 0, metaMagicV3: 1}[tc.magic]; refs[7000] != 1 || refs[0] != oldRef {
				t.Fatalf("after an insert into the upgraded file: new object's reference %d, an old one's %d", refs[7000], refs[0])
			}
			for id, want := range map[int64]byte{7000: keyedTag, 0: 1} { // 1: the ball's full-record tag
				a := addr
				if id == 0 {
					a = entries[0].addr
				}
				if rec, legacy, err := old.readRecord(a); err != nil || recordTag(rec, legacy) != want {
					t.Fatalf("object %d's record %x (%v): want tag %d", id, rec, err, want)
				}
			}
			re, _, err := Open(store, tree.MetaPage(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(re.shapes) != max(1, len(tree.shapes)) {
				t.Fatalf("upgraded file reopened with %d shapes", len(re.shapes))
			}
			if err := re.Snapshot().CheckRecords(); err != nil {
				t.Fatal(err)
			}
			if a, ok := re.RecordAddr(near.ID); !ok || a != addr {
				t.Fatalf("keyed record after reopening: the directory has %+v (live %v), want %+v", a, ok, addr)
			}
			if err := re.Delete(near.ID); err != nil {
				t.Fatal(err)
			}
			byID := func(rs []Result) []Result {
				rs = slices.Clone(rs)
				slices.SortFunc(rs, func(a, b Result) int { return cmp.Compare(a.ID, b.ID) })
				return rs
			}
			for k, q := range queries { // the insert and delete moved entries about
				if got, _, err := rangeQuery(re, q); err != nil || !reflect.DeepEqual(byID(got), byID(answers[k])) {
					t.Fatalf("query %d after the upgrade: %v (err %v), was %v", k, got, err, answers[k])
				}
			}
		})
	}
}

// TestShapeTableOverflow: shapes beyond what the metadata page holds get
// reference 0 and a full record — never an error, never a truncated table
// — and the tree answers, commits and reopens all the same.
func TestShapeTableOverflow(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	store := pagefile.NewMemStore()
	tree, err := New(Options{Dim: 2, Store: store, Persist: true})
	if err != nil {
		t.Fatal(err)
	}
	objs := make([]Object, 400)
	for i := range objs {
		c := geom.Point{rng.Float64() * 500, rng.Float64() * 500}
		objs[i] = Object{ID: int64(i), PDF: updf.NewUniformBall(c, 5+float64(i)/16)} // a shape each
	}
	if err := tree.BulkLoad(objs[:300]); err != nil {
		t.Fatal(err)
	}
	for _, o := range objs[300:] {
		if err := tree.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	// uball, 2-D: 26 bytes and a length each.
	full := (pagefile.PageSize - metaFixed - 2) / 28
	if len(tree.shapes) != full {
		t.Fatalf("table holds %d shapes, the page has room for %d", len(tree.shapes), full)
	}
	for id, ref := range leafShapes(t, tree) {
		if want := uint16(id + 1); int(id) >= full && ref != 0 || int(id) < full && ref != want {
			t.Fatalf("object %d has reference %d", id, ref)
		}
	}
	// A ball the table had no room for keeps the full record.
	byID := make(map[int64]Object, len(objs))
	for _, o := range objs {
		byID[o.ID] = o
	}
	if keyed := checkRecordForms(t, tree, byID); keyed != full {
		t.Fatalf("%d keyed records, %d objects with a shape", keyed, full)
	}
	re, _, err := Open(store, tree.MetaPage(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(re.shapes) != full {
		t.Fatalf("reopened with %d shapes of %d", len(re.shapes), full)
	}
	if err := re.Snapshot().CheckRecords(); err != nil {
		t.Fatal(err)
	}
	scan := NewScan(objs, 9)
	for k := 0; k < 20; k++ {
		q := Query{Rect: randomQueryRect(rng, 500), Prob: 0.05 + 0.9*rng.Float64()}
		got, _, err := rangeQuery(re, q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(resultIDs(got), resultIDs(scan.BruteForce(q))) {
			t.Fatalf("query %d on a tree with a full table mismatches brute force", k)
		}
	}
}

// TestShapeTableSnapshotAndRollback: a snapshot pinned before a shape
// arrived answers as it did; a rolled-back batch takes its shapes with it,
// and the reference they had goes to the next shape to arrive.
func TestShapeTableSnapshotAndRollback(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	objs := shapedObjects(500, 400, rng)
	tree := bulkTree(t, Options{Dim: 2}, objs)
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	pinned := tree.Snapshot()
	defer pinned.Close()
	q := Query{Rect: geom.NewRect(geom.Point{100, 100}, geom.Point{300, 280}), Prob: 0.35}
	want, wantStats, err := pinned.RangeQuery(context.Background(), q, QueryOpts{})
	if err != nil || wantStats.ShapeDecided == 0 {
		t.Fatalf("fixture: err %v, %d decided on shapes", err, wantStats.ShapeDecided)
	}

	for i := 0; i < 40; i++ { // a new shape, right inside the query
		if err := tree.Insert(Object{ID: int64(9000 + i), PDF: updf.NewUniformBall(geom.Point{200 + float64(i), 190}, 7)}); err != nil {
			t.Fatal(err)
		}
	}
	if len(tree.shapes) != 7 || pinned.Shapes() != 6 {
		t.Fatalf("working table %d shapes, pinned epoch %d", len(tree.shapes), pinned.Shapes())
	}
	if err := tree.Rollback(); err != nil {
		t.Fatal(err)
	}
	if _, there := tree.shapeRefs["uball:d=2:r=7"]; len(tree.shapes) != 6 || there {
		t.Fatalf("rollback left %d shapes (the new one still known: %v)", len(tree.shapes), there)
	}
	for i := 0; i < 40; i++ {
		if err := tree.Insert(Object{ID: int64(9100 + i), PDF: updf.NewUniformBall(geom.Point{200 + float64(i), 190}, 9)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(tree.shapes) != 7 || tree.shapes[6].pdf.ShapeKey() != "uball:d=2:r=9" {
		t.Fatalf("reference 7 of %d names %s", len(tree.shapes), tree.shapes[6].pdf.ShapeKey())
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got, gotStats, err := pinned.RangeQuery(context.Background(), q, QueryOpts{})
	if err != nil || !reflect.DeepEqual(got, want) || gotStats.ShapeDecided != wantStats.ShapeDecided {
		t.Fatalf("the pinned snapshot answers differently after the table grew: err %v, %d results (%d), %d shape decisions (%d)",
			err, len(got), len(want), gotStats.ShapeDecided, wantStats.ShapeDecided)
	}
	now, _, err := rangeQuery(tree, q)
	if err != nil || len(now) <= len(want) {
		t.Fatalf("the new epoch: err %v, %d results, the old one had %d", err, len(now), len(want))
	}
	if err := pinned.CheckRecords(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckInvariantsKnowsShapes: a reference beyond the table, extents that
// are not the prototype's, and — for CheckRecords — a record of another
// shape are each reported, and a query meeting the first falls back to the
// record instead of indexing past the table.
func TestCheckInvariantsKnowsShapes(t *testing.T) {
	build := func() (*Tree, *node) {
		objs := shapedObjects(30, 200, rand.New(rand.NewSource(46)))
		tree := bulkTree(t, Options{Dim: 2}, objs)
		leaf, err := tree.readNode(tree.rootPage, tree.rootLevel)
		if err != nil || !leaf.leaf() {
			t.Fatalf("fixture is not a single leaf: %v", err)
		}
		return tree, leaf
	}
	rewrite := func(tree *Tree, leaf *node) {
		if err := tree.writeNode(leaf); err != nil {
			t.Fatal(err)
		}
		if err := tree.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	tree, leaf := build()
	leaf.entries[0].shape = centreEntry - 1
	rewrite(tree, leaf)
	if err := tree.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "beyond a table") {
		t.Fatalf("reference beyond the table: %v", err)
	}
	if _, _, err := rangeQuery(tree, Query{Rect: geom.NewRect(geom.Point{0, 0}, geom.Point{120, 120}), Prob: 0.5}); err != nil {
		t.Fatalf("query over an entry with a reference beyond the table: %v", err)
	}

	tree, leaf = build()
	e := &leaf.entries[0] // uball r = 25
	if e.shape == 0 {
		t.Fatal("fixture: entry 0 has no reference")
	}
	// A centre entry's box is its shape's; a compact one, as a UTR6 file
	// holds a ball's, stores the box it has.
	e.mbr, e.ctr = geom.NewRect(e.mbr.Lo, geom.Point{e.mbr.Hi[0] + 1e-6, e.mbr.Hi[1]}), nil
	rewrite(tree, leaf)
	if err := tree.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "extents") {
		t.Fatalf("MBR wider than its shape by 1e-6: %v", err)
	}

	tree, leaf = build()
	var ball, gau uint16
	for ref, s := range tree.shapes {
		switch s.pdf.(type) {
		case *updf.UniformBall:
			ball = uint16(ref + 1)
		case *updf.ConGauBall:
			gau = uint16(ref + 1)
		}
	}
	for i := range leaf.entries { // same extents, another density
		if leaf.entries[i].shape == ball {
			leaf.entries[i].shape = gau
			break
		}
	}
	rewrite(tree, leaf)
	snap := tree.Snapshot()
	defer snap.Close()
	if err := snap.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants reads no record, yet: %v", err)
	}
	if err := snap.CheckRecords(); err == nil || !strings.Contains(err.Error(), "its record holds uball") {
		t.Fatalf("record of another shape: %v", err)
	}

	// A centre an ulp off its record's: the box is still the shape's, but
	// the record says otherwise.
	tree, leaf = build()
	e = &leaf.entries[0]
	e.ctr = geom.Point{math.Nextafter(e.ctr[0], math.Inf(1)), e.ctr[1]}
	e.mbr = tree.shapes[e.shape-1].pdf.(updf.Recentrer).Recentred(e.ctr).MBR()
	rewrite(tree, leaf)
	moved := tree.Snapshot()
	defer moved.Close()
	if err := moved.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants reads no record, yet: %v", err)
	}
	if err := moved.CheckRecords(); err == nil || !strings.Contains(err.Error(), "its record's") {
		t.Fatalf("centre an ulp off its record's: %v", err)
	}
}

// fitCalls bounds the MarginalCDF evaluations fitting one shape may spend
// per catalog value and dimension: two quantiles, each a bisection to
// QuantileTol — about 30 halvings of the extent, two evaluations at its
// ends, and one more where the marginal is flat at an end.
const fitCalls = 70

// fitWork returns how many MarginalCDF evaluations MarginalQuantile makes
// while fn runs.
func fitWork(fn func()) int64 {
	before := updf.QuantileCDFCalls()
	fn()
	return updf.QuantileCDFCalls() - before
}

// TestOpenFitWorkBounded: Open fits every shape of the persisted table, so
// what it costs is bounded by the table and the catalog: a metadata page
// filled with distinct shapes of one keyed family, at MaxCatalogSize,
// opens with at most fitCalls·n·m·d MarginalCDF evaluations, for each
// keyed family.
func TestOpenFitWorkBounded(t *testing.T) {
	c := geom.Point{500, 400}
	box := func(i int) geom.Rect {
		w := 10 + float64(i)/4
		return geom.NewRect(geom.Point{c[0] - w, c[1] - 12}, geom.Point{c[0] + w, c[1] + 12})
	}
	families := []struct {
		name  string
		shape func(i int) updf.PDF
	}{
		{"uniform ball", func(i int) updf.PDF { return updf.NewUniformBall(c, 10+float64(i)/4) }},
		{"Con-Gau ball", func(i int) updf.PDF { return updf.NewConGauBall(c, 10+float64(i)/4, 5) }},
		{"uniform rectangle", func(i int) updf.PDF { return updf.NewUniformRect(box(i)) }},
		{"Gaussian rectangle", func(i int) updf.PDF {
			return updf.NewGaussRect(box(i), geom.Point{c[0] + 2, c[1] - 1}, []float64{6, 5})
		}},
		{"exponential rectangle", func(i int) updf.PDF { return updf.NewExpoRect(box(i), []float64{0.05, 0.02}) }},
		{"polygon", func(i int) updf.PDF {
			r := 10 + float64(i)/4
			return updf.NewUniformPolygon([]geom.Point{{c[0] + r, c[1]}, {c[0], c[1] + r}, {c[0] - r, c[1]}, {c[0], c[1] - r}})
		}},
	}
	const m, d = MaxCatalogSize, 2
	for _, fam := range families {
		store := pagefile.NewMemStore()
		tree, err := New(Options{Dim: d, CatalogSize: m, Store: store, Persist: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.Commit(); err != nil {
			t.Fatal(err)
		}
		page := make([]byte, pagefile.PageSize)
		if err := store.Read(tree.MetaPage(), page); err != nil {
			t.Fatal(err)
		}
		n, off := 0, metaFixed+2
		for ; ; n++ {
			enc, err := updf.Encode(fam.shape(n))
			if err != nil {
				t.Fatal(err)
			}
			if off+2+len(enc) > pagefile.PageSize {
				break
			}
			binary.LittleEndian.PutUint16(page[off:], uint16(len(enc)))
			off += 2 + copy(page[off+2:], enc)
		}
		binary.LittleEndian.PutUint16(page[metaFixed:], uint16(n))
		if err := store.Write(tree.MetaPage(), page); err != nil {
			t.Fatal(err)
		}
		var re *Tree
		calls := fitWork(func() { re, _, err = Open(store, tree.MetaPage(), Options{}) })
		if err != nil {
			t.Fatalf("%s: %v", fam.name, err)
		}
		if len(re.shapes) != n {
			t.Fatalf("%s: %d shapes in the reopened table, wrote %d", fam.name, len(re.shapes), n)
		}
		if bound := int64(fitCalls * n * m * d); calls > bound {
			t.Errorf("%s: opening %d shapes at m = %d took %d MarginalCDF evaluations, above %d·n·m·d = %d", fam.name, n, m, calls, fitCalls, bound)
		} else if calls == 0 {
			t.Errorf("%s: opening %d shapes counted no MarginalCDF evaluation; the count is not wired", fam.name, n)
		}
		t.Logf("%s: %d shapes, %d evaluations, %.1f per shape, catalog value and dimension", fam.name, n, calls, float64(calls)/float64(n*m*d))
	}
}

// FuzzOpenMeta hands Open arbitrary bytes as the metadata page of a store
// holding a small committed tree. Open returns an error — typed, for a bad
// shape table — or a tree whose every table entry is a decoded pdf of the
// tree's dimensionality with a ShapeKey; on that tree a range query and a
// read of every record return or fail, and never index past the table
// whatever the leaves and the keyed records say. However the page is
// filled, opening it fits at most as many shapes as its count names, so it
// costs at most fitCalls evaluations per shape, catalog value and
// dimension; a catalog size above MaxCatalogSize is refused before any.
func FuzzOpenMeta(f *testing.F) {
	store := pagefile.NewMemStore()
	tree, err := New(Options{Dim: 2, Store: store, Persist: true})
	if err != nil {
		f.Fatal(err)
	}
	if err := tree.BulkLoad(shapedObjects(120, 300, rand.New(rand.NewSource(47)))); err != nil {
		f.Fatal(err)
	}
	if err := tree.Commit(); err != nil {
		f.Fatal(err)
	}
	good := make([]byte, pagefile.PageSize)
	if err := store.Read(tree.MetaPage(), good); err != nil {
		f.Fatal(err)
	}
	mutate := func(edit func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		edit(b)
		return b
	}
	f.Add(good)
	f.Add(mutate(func(b []byte) { binary.LittleEndian.PutUint32(b, metaMagicV4) }))
	f.Add(mutate(func(b []byte) { binary.LittleEndian.PutUint32(b, metaMagicV3) }))
	f.Add(mutate(func(b []byte) { binary.LittleEndian.PutUint32(b, metaMagicV2) }))
	f.Add(mutate(func(b []byte) { binary.LittleEndian.PutUint32(b, metaMagicV1) }))
	f.Add(mutate(func(b []byte) { binary.LittleEndian.PutUint16(b[metaFixed:], 0) }))      // empty table under live references
	f.Add(mutate(func(b []byte) { binary.LittleEndian.PutUint16(b[metaFixed:], 0xFFFF) })) // count beyond the page
	f.Add(mutate(func(b []byte) { binary.LittleEndian.PutUint16(b[metaFixed+2:], 0xFFF0) }))
	f.Add(mutate(func(b []byte) { b[metaFixed+4] = 0xEE }))                                     // unknown pdf tag
	f.Add(mutate(func(b []byte) { b[metaFixed+5] = 3 }))                                        // a 3-D shape in a 2-D tree
	f.Add(mutate(func(b []byte) { b[metaFixed+4] = 6 }))                                        // a histogram: no ShapeKey
	f.Add(mutate(func(b []byte) { copy(b[metaFixed+6:], "\xff\xff\xff\xff\xff\xff\xff\x7f") })) // NaN centre
	f.Add(mutate(func(b []byte) { b[5] = 0 }))
	f.Add(good[:100])
	// A catalog size of 12,336 over a table holding a Con-Gau ball: fitting
	// it took seconds before Open refused m above MaxCatalogSize.
	f.Add(mutate(func(b []byte) { binary.LittleEndian.PutUint16(b[6:], 12336) }))
	// One ball of radius 1e-6 at 1e7: QuantileTol is finer than the floats'
	// spacing there, and bisection must stop at adjacent floats.
	f.Add(mutate(func(b []byte) {
		enc, _ := updf.Encode(updf.NewUniformBall(geom.Point{1e7, 1e7}, 1e-6))
		binary.LittleEndian.PutUint16(b[metaFixed:], 1)
		binary.LittleEndian.PutUint16(b[metaFixed+2:], uint16(len(enc)))
		copy(b[metaFixed+4:], enc)
	}))

	f.Fuzz(func(t *testing.T, data []byte) {
		page := make([]byte, pagefile.PageSize)
		copy(page, data)
		scratch := pagefile.NewMemStore()
		buf := make([]byte, pagefile.PageSize)
		for id := pagefile.PageID(0); ; id++ {
			rerr := store.Read(id, buf)
			if errors.Is(rerr, pagefile.ErrPageOutOfRange) {
				break
			}
			if got, err := scratch.Alloc(); err != nil || got != id {
				t.Fatalf("copying the store: page %d came out as %d, err %v", id, got, err)
			}
			if rerr != nil {
				continue // a freed page: keep the numbering
			}
			if id == tree.MetaPage() {
				copy(buf, page)
			}
			if err := scratch.Write(id, buf); err != nil {
				t.Fatal(err)
			}
		}
		var re *Tree
		var err error
		calls := fitWork(func() { re, _, err = Open(scratch, tree.MetaPage(), Options{NodeCacheEntries: -1}) })
		n, m, d := int64(binary.LittleEndian.Uint16(page[metaFixed:])), int64(binary.LittleEndian.Uint16(page[6:])), int64(page[5])
		if m > MaxCatalogSize && calls > 0 || calls > fitCalls*n*m*d {
			t.Fatalf("opening a page of %d shapes at m = %d, d = %d took %d MarginalCDF evaluations, above %d·n·m·d", n, m, d, calls, fitCalls)
		}
		if err != nil {
			var bad *pagefile.BadPageError
			if dim, m := int(page[5]), int(binary.LittleEndian.Uint16(page[6:])); binary.LittleEndian.Uint32(page) == metaMagic && dim == 2 && m == 15 && page[4] == 0 && !errors.As(err, &bad) {
				t.Fatalf("fixed fields intact, yet the error is not a BadPageError: %v", err)
			}
			return
		}
		for i, s := range re.shapes {
			if s.pdf == nil || s.pdf.Dim() != re.dim || s.pdf.ShapeKey() == "" || s.mbr.Dim() != re.dim {
				t.Fatalf("table entry %d of %d is not a keyed %d-D pdf: %+v", i+1, len(re.shapes), re.dim, s)
			}
			if again, err := updf.Decode(s.enc); err != nil || again.ShapeKey() != s.pdf.ShapeKey() {
				t.Fatalf("table entry %d does not decode to itself: %v", i+1, err)
			}
		}
		// The root, size and data pointers may be anything: errors are fine,
		// an index past the table or a panic is not.
		snap := re.Snapshot()
		defer snap.Close()
		_, _, _ = snap.RangeQuery(context.Background(), Query{Rect: geom.NewRect(geom.Point{20, 20}, geom.Point{260, 240}), Prob: 0.4}, QueryOpts{})
		_ = snap.CheckInvariants()
		_ = snap.CheckRecords()
	})
}
