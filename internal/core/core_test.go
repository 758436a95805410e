package core

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/pagefile"
	"repro/internal/updf"
)

// makeObjects builds a mixed-pdf object set over [0, span]² with exact
// oracles (deterministic ground truth).
func makeObjects(n int, span float64, rng *rand.Rand) []Object {
	objs := make([]Object, 0, n)
	for i := 0; i < n; i++ {
		cx := rng.Float64() * span
		cy := rng.Float64() * span
		var p updf.PDF
		switch i % 4 {
		case 0:
			p = updf.NewUniformBall(geom.Point{cx, cy}, 25)
		case 1:
			r := geom.NewRect(geom.Point{cx, cy}, geom.Point{cx + 40, cy + 30})
			p = updf.NewUniformRect(r)
		case 2:
			p = updf.NewConGauBall(geom.Point{cx, cy}, 25, 12.5)
		default:
			r := geom.NewRect(geom.Point{cx, cy}, geom.Point{cx + 35, cy + 35})
			p = updf.NewGaussRect(r, geom.Point{cx + 17, cy + 17}, []float64{10, 14})
		}
		objs = append(objs, Object{ID: int64(i), PDF: p})
	}
	return objs
}

func buildTree(t *testing.T, kind Kind, objs []Object, catalogSize int) *Tree {
	t.Helper()
	tree, err := New(Options{
		Dim:         2,
		Kind:        kind,
		CatalogSize: catalogSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range objs {
		if err := tree.Insert(o); err != nil {
			t.Fatalf("insert %d: %v", o.ID, err)
		}
	}
	return tree
}

// rangeQueryOpts answers q the way a single-threaded caller does: commit
// whatever is pending, pin the resulting epoch, query it.
func rangeQueryOpts(tree *Tree, q Query, o QueryOpts) ([]Result, QueryStats, error) {
	if err := tree.Commit(); err != nil {
		return nil, QueryStats{}, err
	}
	snap := tree.Snapshot()
	defer snap.Close()
	return snap.RangeQuery(context.Background(), q, o)
}

func rangeQuery(tree *Tree, q Query) ([]Result, QueryStats, error) {
	return rangeQueryOpts(tree, q, QueryOpts{})
}

// nearestNeighbors is rangeQuery's k-NN counterpart.
func nearestNeighbors(tree *Tree, q geom.Point, k int) ([]NNResult, NNStats, error) {
	if err := tree.Commit(); err != nil {
		return nil, NNStats{}, err
	}
	snap := tree.Snapshot()
	defer snap.Close()
	return snap.NearestNeighbors(context.Background(), q, k, QueryOpts{})
}

func resultIDs(rs []Result) []int64 {
	ids := make([]int64, len(rs))
	for i, r := range rs {
		ids[i] = r.ID
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

func sameIDs(a, b []int64) bool {
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

func randomQueryRect(rng *rand.Rand, span float64) geom.Rect {
	cx := rng.Float64() * span
	cy := rng.Float64() * span
	w := 20 + rng.Float64()*span/4
	h := 20 + rng.Float64()*span/4
	return geom.NewRect(geom.Point{cx - w/2, cy - h/2}, geom.Point{cx + w/2, cy + h/2})
}

func TestRangeQueryMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	objs := makeObjects(800, 1000, rng)
	scan := NewScan(objs, 9)

	for _, kind := range []Kind{UTree, UPCR} {
		tree := buildTree(t, kind, objs, 0)
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if tree.Len() != len(objs) {
			t.Fatalf("%v: Len = %d", kind, tree.Len())
		}
		for q := 0; q < 120; q++ {
			rq := randomQueryRect(rng, 1000)
			pq := 0.05 + rng.Float64()*0.9
			query := Query{Rect: rq, Prob: pq}
			got, stats, err := rangeQuery(tree, query)
			if err != nil {
				t.Fatalf("%v query %d: %v", kind, q, err)
			}
			want := scan.BruteForce(query)
			if !sameIDs(resultIDs(got), resultIDs(want)) {
				t.Fatalf("%v query %d (pq=%.3f rq=%v): got %v want %v",
					kind, q, pq, rq, resultIDs(got), resultIDs(want))
			}
			if stats.NodeAccesses < 1 {
				t.Fatalf("%v: no node accesses recorded", kind)
			}
			if stats.Results != len(got) {
				t.Fatalf("%v: stats.Results=%d, len=%d", kind, stats.Results, len(got))
			}
		}
	}
}

func TestValidatedResultsAreMarked(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	objs := makeObjects(300, 500, rng)
	tree := buildTree(t, UTree, objs, 0)
	// A giant query validates everything without probability computations.
	all := Query{Rect: geom.NewRect(geom.Point{-100, -100}, geom.Point{700, 700}), Prob: 0.5}
	got, stats, err := rangeQuery(tree, all)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(objs) {
		t.Fatalf("covering query returned %d of %d", len(got), len(objs))
	}
	if stats.ProbComputations != 0 {
		t.Fatalf("covering query computed %d probabilities", stats.ProbComputations)
	}
	for _, r := range got {
		if !r.Validated || r.Prob != -1 {
			t.Fatalf("validated result not marked: %+v", r)
		}
	}
}

func TestDisjointQueryTouchesFewNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("long-running; skipped with -short")
	}
	rng := rand.New(rand.NewSource(3))
	objs := makeObjects(1000, 1000, rng)
	tree := buildTree(t, UTree, objs, 0)
	q := Query{Rect: geom.NewRect(geom.Point{5000, 5000}, geom.Point{5100, 5100}), Prob: 0.5}
	got, stats, err := rangeQuery(tree, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("disjoint query returned %d results", len(got))
	}
	if stats.NodeAccesses > 1 {
		t.Fatalf("disjoint query visited %d nodes, want 1 (root only)", stats.NodeAccesses)
	}
}

func TestDeleteThenQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	objs := makeObjects(600, 800, rng)
	for _, kind := range []Kind{UTree, UPCR} {
		tree := buildTree(t, kind, objs, 0)
		// Delete a random half.
		perm := rng.Perm(len(objs))
		deleted := map[int64]bool{}
		for _, idx := range perm[:300] {
			o := objs[idx]
			if err := tree.Delete(o.ID); err != nil {
				t.Fatalf("%v: delete %d: %v", kind, o.ID, err)
			}
			deleted[o.ID] = true
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("%v after deletes: %v", kind, err)
		}
		if tree.Len() != 300 {
			t.Fatalf("%v: Len = %d, want 300", kind, tree.Len())
		}
		var remaining []Object
		for _, o := range objs {
			if !deleted[o.ID] {
				remaining = append(remaining, o)
			}
		}
		scan := NewScan(remaining, 9)
		for q := 0; q < 50; q++ {
			query := Query{Rect: randomQueryRect(rng, 800), Prob: 0.05 + rng.Float64()*0.9}
			got, _, err := rangeQuery(tree, query)
			if err != nil {
				t.Fatal(err)
			}
			want := scan.BruteForce(query)
			if !sameIDs(resultIDs(got), resultIDs(want)) {
				t.Fatalf("%v query %d after deletes: got %v want %v",
					kind, q, resultIDs(got), resultIDs(want))
			}
		}
	}
}

func TestDeleteAllLeavesEmptyUsableTree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	objs := makeObjects(250, 400, rng)
	tree := buildTree(t, UTree, objs, 0)
	for _, o := range objs {
		if err := tree.Delete(o.ID); err != nil {
			t.Fatalf("delete %d: %v", o.ID, err)
		}
	}
	if tree.Len() != 0 || tree.Height() != 1 {
		t.Fatalf("Len=%d Height=%d after delete-all", tree.Len(), tree.Height())
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Still usable.
	if err := tree.Insert(objs[0]); err != nil {
		t.Fatal(err)
	}
	got, _, err := rangeQuery(tree, Query{
		Rect: geom.NewRect(geom.Point{-1000, -1000}, geom.Point{2000, 2000}),
		Prob: 0.5,
	})
	if err != nil || len(got) != 1 {
		t.Fatalf("post-rebuild query: %v, %d results", err, len(got))
	}
}

func TestDeleteNotFound(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	objs := makeObjects(50, 200, rng)
	tree := buildTree(t, UTree, objs, 0)
	err := tree.Delete(99999)
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	// A deleted ID is unknown from then on.
	if err := tree.Delete(objs[0].ID); err != nil {
		t.Fatal(err)
	}
	if err := tree.Delete(objs[0].ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second delete: err = %v, want ErrNotFound", err)
	}
	if tree.Len() != len(objs)-1 {
		t.Fatalf("Len = %d, want %d", tree.Len(), len(objs)-1)
	}
}

func TestInterleavedInsertDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tree, err := New(Options{Dim: 2, Kind: UTree})
	if err != nil {
		t.Fatal(err)
	}
	live := map[int64]Object{}
	nextID := int64(0)
	for step := 0; step < 1200; step++ {
		if len(live) == 0 || rng.Float64() < 0.62 {
			o := makeObjects(1, 600, rng)[0]
			o.ID = nextID
			nextID++
			if err := tree.Insert(o); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			live[o.ID] = o
		} else {
			var victim Object
			k := rng.Intn(len(live))
			for _, o := range live {
				if k == 0 {
					victim = o
					break
				}
				k--
			}
			if err := tree.Delete(victim.ID); err != nil {
				t.Fatalf("step %d: delete: %v", step, err)
			}
			delete(live, victim.ID)
		}
		if step%300 == 299 {
			if err := tree.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Final correctness check.
	var objs []Object
	for _, o := range live {
		objs = append(objs, o)
	}
	scan := NewScan(objs, 9)
	for q := 0; q < 30; q++ {
		query := Query{Rect: randomQueryRect(rng, 600), Prob: 0.05 + rng.Float64()*0.9}
		got, _, err := rangeQuery(tree, query)
		if err != nil {
			t.Fatal(err)
		}
		want := scan.BruteForce(query)
		if !sameIDs(resultIDs(got), resultIDs(want)) {
			t.Fatalf("query %d: got %v want %v", q, resultIDs(got), resultIDs(want))
		}
	}
}

func TestUTreeSmallerThanUPCR(t *testing.T) {
	if testing.Short() {
		t.Skip("long-running; skipped with -short")
	}
	// Table 1's headline: the U-tree is much smaller despite its larger
	// catalog (15 vs 9), because entries store 8d CFB values instead of
	// 2dm PCR values.
	rng := rand.New(rand.NewSource(8))
	objs := makeObjects(2000, 2000, rng)
	ut := buildTree(t, UTree, objs, 15)
	up := buildTree(t, UPCR, objs, 9)
	utPages, err := ut.IndexPages()
	if err != nil {
		t.Fatal(err)
	}
	upPages, err := up.IndexPages()
	if err != nil {
		t.Fatal(err)
	}
	if utPages >= upPages {
		t.Fatalf("U-tree pages %d ≥ U-PCR pages %d", utPages, upPages)
	}
	ratio := float64(upPages) / float64(utPages)
	if ratio < 1.5 {
		t.Fatalf("size ratio %.2f, expected ≥ 1.5 (paper shows ≈ 2.4–2.8)", ratio)
	}
	// Fanout relations from Section 6.3.
	utLeaf, utInner := ut.Fanout()
	upLeaf, upInner := up.Fanout()
	if utLeaf <= upLeaf || utInner <= upInner {
		t.Fatalf("fanout: U-tree %d/%d vs U-PCR %d/%d", utLeaf, utInner, upLeaf, upInner)
	}
}

func TestUTreeFewerNodeAccesses(t *testing.T) {
	if testing.Short() {
		t.Skip("long-running; skipped with -short")
	}
	rng := rand.New(rand.NewSource(9))
	objs := makeObjects(3000, 3000, rng)
	ut := buildTree(t, UTree, objs, 15)
	up := buildTree(t, UPCR, objs, 9)
	var utIO, upIO int
	for q := 0; q < 40; q++ {
		query := Query{Rect: randomQueryRect(rng, 3000), Prob: 0.6}
		_, s1, err := rangeQuery(ut, query)
		if err != nil {
			t.Fatal(err)
		}
		_, s2, err := rangeQuery(up, query)
		if err != nil {
			t.Fatal(err)
		}
		utIO += s1.NodeAccesses
		upIO += s2.NodeAccesses
	}
	if utIO >= upIO {
		t.Fatalf("U-tree node accesses %d ≥ U-PCR %d (paper: U-tree significantly lower)", utIO, upIO)
	}
}

func TestQueryValidation(t *testing.T) {
	tree, err := New(Options{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	cases := []Query{
		{Rect: geom.NewRect(geom.Point{0}, geom.Point{1}), Prob: 0.5},       // wrong dim
		{Rect: geom.NewRect(geom.Point{0, 0}, geom.Point{1, 1}), Prob: 0},   // pq = 0
		{Rect: geom.NewRect(geom.Point{0, 0}, geom.Point{1, 1}), Prob: 1.1}, // pq > 1
		{Rect: geom.NewRect(geom.Point{0, 0}, geom.Point{1, 1}), Prob: math.NaN()},
	}
	for i, q := range cases {
		if _, _, err := rangeQuery(tree, q); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// Invalid rectangle (NaN) must be rejected too.
	bad := Query{Rect: geom.Rect{Lo: geom.Point{0, 0}, Hi: geom.Point{1, 1}}, Prob: 0.5}
	bad.Rect.Lo[0] = 2 // inverted
	if _, _, err := rangeQuery(tree, bad); err == nil {
		t.Error("inverted rect accepted")
	}
	// A k-NN query point must be finite.
	snap := tree.Snapshot()
	defer snap.Close()
	for _, q := range []geom.Point{{math.NaN(), 5}, {math.Inf(1), 5}, {5, math.Inf(-1)}} {
		if _, _, err := snap.NearestNeighbors(context.Background(), q, 3, QueryOpts{}); err == nil {
			t.Errorf("k-NN query point %v accepted", q)
		}
	}
}

func TestEmptyTreeQuery(t *testing.T) {
	tree, err := New(Options{Dim: 3})
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := rangeQuery(tree, Query{
		Rect: geom.NewRect(geom.Point{0, 0, 0}, geom.Point{1, 1, 1}),
		Prob: 0.5,
	})
	if err != nil || len(got) != 0 {
		t.Fatalf("empty tree query: %v, %d results", err, len(got))
	}
	if stats.NodeAccesses != 1 {
		t.Fatalf("NodeAccesses = %d", stats.NodeAccesses)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{Dim: 0}); err == nil {
		t.Error("dim 0 accepted")
	}
	if _, err := New(Options{Dim: 2, CatalogSize: 1}); err == nil {
		t.Error("catalog 1 accepted")
	}
	// A large catalog with U-PCR in high dimension → fanout too small.
	if _, err := New(Options{Dim: 8, Kind: UPCR, CatalogSize: 30}); err == nil || !strings.Contains(err.Error(), "fanout") {
		t.Errorf("fanout <4 configuration: error %v, want the fan-out's", err)
	}
	if _, err := New(Options{Dim: 2, CatalogSize: MaxCatalogSize + 1}); err == nil {
		t.Errorf("catalog %d accepted", MaxCatalogSize+1)
	}
	if _, err := New(Options{Dim: 2, CatalogSize: MaxCatalogSize}); err != nil {
		t.Errorf("catalog %d: %v", MaxCatalogSize, err)
	}
}

func TestInsertDimMismatch(t *testing.T) {
	tree, _ := New(Options{Dim: 2})
	o := Object{ID: 1, PDF: updf.NewUniformBall(geom.Point{0, 0, 0}, 1)}
	if err := tree.Insert(o); err == nil {
		t.Error("3D object accepted by 2D tree")
	}
}

func Test3DTree(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	var objs []Object
	for i := 0; i < 400; i++ {
		ctr := geom.Point{rng.Float64() * 500, rng.Float64() * 500, rng.Float64() * 500}
		objs = append(objs, Object{ID: int64(i), PDF: updf.NewUniformBall(ctr, 12.5)})
	}
	tree, err := New(Options{Dim: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range objs {
		if err := tree.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	scan := NewScan(objs, 9)
	for q := 0; q < 40; q++ {
		c := geom.Point{rng.Float64() * 500, rng.Float64() * 500, rng.Float64() * 500}
		s := 30 + rng.Float64()*80
		rq := geom.NewRect(
			geom.Point{c[0] - s, c[1] - s, c[2] - s},
			geom.Point{c[0] + s, c[1] + s, c[2] + s})
		query := Query{Rect: rq, Prob: 0.05 + rng.Float64()*0.9}
		got, _, err := rangeQuery(tree, query)
		if err != nil {
			t.Fatal(err)
		}
		want := scan.BruteForce(query)
		if !sameIDs(resultIDs(got), resultIDs(want)) {
			t.Fatalf("3D query %d: got %v want %v", q, resultIDs(got), resultIDs(want))
		}
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	objs := makeObjects(400, 600, rng)
	store := pagefile.NewMemStore()
	tree, err := New(Options{Dim: 2, Store: store, Persist: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range objs {
		if err := tree.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}

	re, _, err := Open(store, tree.MetaPage(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != tree.Len() || re.Kind() != tree.Kind() || re.Dim() != 2 {
		t.Fatalf("reopened tree mismatch: len=%d kind=%v", re.Len(), re.Kind())
	}
	if err := re.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	scan := NewScan(objs, 9)
	for q := 0; q < 40; q++ {
		query := Query{Rect: randomQueryRect(rng, 600), Prob: 0.05 + rng.Float64()*0.9}
		got, _, err := rangeQuery(re, query)
		if err != nil {
			t.Fatal(err)
		}
		want := scan.BruteForce(query)
		if !sameIDs(resultIDs(got), resultIDs(want)) {
			t.Fatalf("reopened query %d mismatch", q)
		}
	}
	// Reopened tree accepts further updates.
	extra := makeObjects(1, 600, rng)[0]
	extra.ID = 999999
	if err := re.Insert(extra); err != nil {
		t.Fatal(err)
	}
	if err := re.Delete(extra.ID); err != nil {
		t.Fatal(err)
	}
}

// TestOpenFileWithTombstonedSlots: a UTR7 index written when deletes still
// zeroed the slot length of the records they unreferenced opens and keeps
// working — no leaf points at a dead slot, so every check passes, the first
// append starts a fresh dense page instead of going after the dead slots on
// the legacy append page, and the dead slots stay dead.
func TestOpenFileWithTombstonedSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	objs := makeObjects(150, 600, rng)
	store := pagefile.NewMemStore()
	tree, err := New(Options{Dim: 2, Store: store, Persist: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range objs {
		if i%30 == 0 {
			// A new data page every 30 records, so that each page's records
			// fit a legacy page once their ids are widened (below).
			tree.appendPage, tree.appendBuf = pagefile.InvalidPage, nil
		}
		if err := tree.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	addrs := map[int64]DataAddr{}
	if err := tree.walk(tree.rootPage, tree.rootLevel, func(n *node) error {
		for i := range n.entries {
			if n.leaf() {
				addrs[n.entries[i].id] = n.entries[i].addr
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// The first and the last ten die: a sealed page and the append page.
	dead := append(append([]Object(nil), objs[:10]...), objs[140:]...)
	live := objs[10:140]
	for _, o := range dead {
		if err := tree.Delete(o.ID); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	appendPage := tree.appendPage
	if addrs[dead[0].ID].Page == appendPage || addrs[dead[19].ID].Page != appendPage {
		t.Fatalf("fixture: dead records at %+v and %+v, append page %d", addrs[dead[0].ID], addrs[dead[19].ID], appendPage)
	}
	// The file as the UTR7 writer left it — legacy data pages, u64 ids —
	// and what the old collector then did to it.
	tombs := map[pagefile.PageID][]uint16{} // every data page, and its dead slots
	for _, a := range addrs {
		tombs[a.Page] = nil
	}
	for _, o := range dead {
		a := addrs[o.ID]
		tombs[a.Page] = append(tombs[a.Page], a.Slot)
	}
	for page, slots := range tombs {
		rewritePage(t, store, page, true, func(recs [][]byte) {
			for i := range recs {
				recs[i] = legacyRecord(recs[i])
			}
			for _, slot := range slots {
				recs[slot] = nil
			}
		})
	}
	meta := storedPage(t, store, tree.MetaPage())
	binary.LittleEndian.PutUint32(meta, metaMagicV7)
	if err := store.Write(tree.MetaPage(), meta); err != nil {
		t.Fatal(err)
	}

	re, _, err := Open(store, tree.MetaPage(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkRecords := func() {
		t.Helper()
		snap := re.Snapshot()
		defer snap.Close()
		if err := snap.CheckRecords(); err != nil {
			t.Fatal(err)
		}
	}
	checkRecords()
	if re.Len() != len(live) {
		t.Fatalf("reopened Len = %d, want %d", re.Len(), len(live))
	}
	extra := makeObjects(5, 600, rng)
	for i := range extra {
		extra[i].ID = int64(1000 + i)
		if err := re.Insert(extra[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := re.Commit(); err != nil {
		t.Fatal(err)
	}
	checkRecords()
	if err := re.walk(re.rootPage, re.rootLevel, func(n *node) error {
		for i := range n.entries {
			e := &n.entries[i]
			if _, old := tombs[e.addr.Page]; n.leaf() && e.id >= 1000 && (old || e.addr.Page != re.appendPage || e.addr.Slot != uint16(e.id-1000)) {
				t.Errorf("object %d appended at %+v, want slot %d of a fresh append page", e.id, e.addr, e.id-1000)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, o := range dead {
		if _, _, err := re.readRecord(addrs[o.ID]); !errors.Is(err, ErrBadSlot) {
			t.Fatalf("dead slot %+v read: %v, want ErrBadSlot", addrs[o.ID], err)
		}
	}
	scan := NewScan(append(append([]Object(nil), live...), extra...), 9)
	for q := 0; q < 20; q++ {
		query := Query{Rect: randomQueryRect(rng, 600), Prob: 0.05 + rng.Float64()*0.9}
		got, _, err := rangeQuery(re, query)
		if err != nil {
			t.Fatal(err)
		}
		if want := scan.BruteForce(query); !sameIDs(resultIDs(got), resultIDs(want)) {
			t.Fatalf("query %d: %d results, brute force %d", q, len(got), len(want))
		}
	}
}

// readCounter counts base-store reads per page.
type readCounter struct {
	pagefile.Store
	reads map[pagefile.PageID]int
}

func (r *readCounter) Read(id pagefile.PageID, buf []byte) error {
	r.reads[id]++
	return r.Store.Read(id, buf)
}

// TestOpenReadsEachPageOnce: Open's one walk recovers the directory, the
// reachable set and the root box, so it reads the metadata page and every
// node page once — the root included — and no record.
func TestOpenReadsEachPageOnce(t *testing.T) {
	rc := &readCounter{Store: pagefile.NewMemStore(), reads: make(map[pagefile.PageID]int)}
	tree, err := New(Options{Dim: 2, Store: rc, Persist: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.BulkLoad(makeObjects(2000, 3000, rand.New(rand.NewSource(46)))); err != nil {
		t.Fatal(err)
	}
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	if tree.rootLevel < 1 {
		t.Fatalf("fixture: root at level %d, want an inner root", tree.rootLevel)
	}
	nodes, err := tree.IndexPages()
	if err != nil {
		t.Fatal(err)
	}
	clear(rc.reads)
	reopened, _, err := Open(rc, tree.MetaPage(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := rc.reads[reopened.rootPage]; n != 1 {
		t.Errorf("Open read the root page %d %d times, want once", reopened.rootPage, n)
	}
	if len(rc.reads) != nodes+1 {
		t.Errorf("Open read %d pages, want the metadata page and %d node pages", len(rc.reads), nodes)
	}
	for id, n := range rc.reads {
		if n != 1 {
			t.Errorf("Open read page %d %d times, want once", id, n)
		}
	}
	if !reopened.rootMBR.Equal(tree.rootMBR) {
		t.Fatalf("reopened root box %v, want %v", reopened.rootMBR, tree.rootMBR)
	}
}

func TestOpenBadMeta(t *testing.T) {
	store := pagefile.NewMemStore()
	id, _ := store.Alloc()
	if _, _, err := Open(store, id, Options{}); err == nil {
		t.Error("garbage metadata accepted")
	}
}

// TestOpenRefusesUTR1: a metadata page written before leaf entries moved to
// float32 CFB coefficients is refused by its magic, with the typed error —
// its 176-byte entries are never run through the 112-byte decoder.
func TestOpenRefusesUTR1(t *testing.T) {
	store := pagefile.NewMemStore()
	meta, _ := store.Alloc()
	root, _ := store.Alloc()
	// The page a UTR1 writer left behind: same fields, older magic.
	buf := make([]byte, pagefile.PageSize)
	copy(buf, "1RTU") // 0x55545231 little endian
	buf[4], buf[5] = byte(UTree), 2
	binary.LittleEndian.PutUint16(buf[6:], 15)
	binary.LittleEndian.PutUint32(buf[8:], uint32(root))
	binary.LittleEndian.PutUint64(buf[16:], 23)
	binary.LittleEndian.PutUint64(buf[28:], 1)
	if err := store.Write(meta, buf); err != nil {
		t.Fatal(err)
	}
	tree, _, err := Open(store, meta, Options{})
	if !errors.Is(err, ErrOldLayout) || tree != nil {
		t.Fatalf("Open on a UTR1 file: tree %v, err %v, want ErrOldLayout", tree, err)
	}
	if !strings.Contains(err.Error(), "rebuild") {
		t.Fatalf("error does not say what to do: %v", err)
	}
	if r := store.Stats().Reads.Load(); r != 1 {
		t.Fatalf("%d store reads, want the metadata page alone", r)
	}
}

func TestFaultInjectionSurfacesErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	cs := pagefile.NewChaosStore(pagefile.NewMemStore(), 0)
	fault := cs.MustAddRule(pagefile.ChaosRule{Op: pagefile.OpAny, Fault: pagefile.FaultPermanent, Countdown: -1, Sticky: true})
	tree, err := New(Options{Dim: 2, Store: cs})
	if err != nil {
		t.Fatal(err)
	}
	// Two leaves' worth of objects, committed: the armed insert must read
	// committed pages from the store, not the open batch's dirty ones.
	n := 2 * tree.leafCap
	objs := makeObjects(n+1, 300, rng)
	for _, o := range objs[:n] {
		if err := tree.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	// Trip the store and verify errors propagate rather than panic.
	fault.Arm(0)
	if err := tree.Insert(objs[n]); !errors.Is(err, pagefile.ErrInjected) {
		t.Fatalf("insert under fault: %v", err)
	}
	fault.Arm(0)
	if _, _, err := rangeQuery(tree, Query{
		Rect: geom.NewRect(geom.Point{0, 0}, geom.Point{300, 300}), Prob: 0.5,
	}); !errors.Is(err, pagefile.ErrInjected) {
		t.Fatalf("query under fault: %v", err)
	}
	// Heal and confirm reads still work (tree structure was not corrupted
	// by the failed insert attempt before any page mutation).
	fault.Arm(-1)
	if _, _, err := rangeQuery(tree, Query{
		Rect: geom.NewRect(geom.Point{0, 0}, geom.Point{300, 300}), Prob: 0.5,
	}); err != nil {
		t.Fatalf("query after heal: %v", err)
	}
}

// corruptChildPointer bulk-loads a three-level tree over objs and points the
// root's first entry back at the root itself, rewriting the committed root
// page in place behind the copy-on-write check. It returns the tree and the
// root as it was before the damage.
func corruptChildPointer(t *testing.T, objs []Object, cache int) (*Tree, *node) {
	t.Helper()
	tree, err := New(Options{Dim: 2, NodeCacheEntries: cache})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.BulkLoad(objs); err != nil {
		t.Fatal(err)
	}
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	if tree.rootLevel != 2 {
		t.Fatalf("fixture: root at level %d, want 2", tree.rootLevel)
	}
	root, err := tree.readNode(tree.rootPage, tree.rootLevel)
	if err != nil {
		t.Fatal(err)
	}
	bad := *root
	bad.entries = append([]entry(nil), root.entries...)
	bad.entries[0].child = root.page
	page := make([]byte, pagefile.PageSize)
	if err := tree.encodeNode(&bad, page); err != nil {
		t.Fatal(err)
	}
	if err := tree.store.Write(root.page, page); err != nil {
		t.Fatal(err)
	}
	return tree, root
}

// within runs op and fails the test unless it returns within 2 s.
func within(t *testing.T, name string, op func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- op() }()
	select {
	case err := <-done:
		return err
	case <-time.After(2 * time.Second):
		t.Fatalf("%s did not return within 2 s", name)
		return nil
	}
}

// TestCorruptChildPointerEndsQueries: a child pointer that leads back to
// the root once kept a range query descending until its deadline (about
// 700k node accesses in 2 s) and for ever on context.Background(). Each
// child must hold the level below its parent, so both traversals stop at
// the first page that does not, with a typed BadPageError, every time they
// reach it. The deadline only turns the old behaviour into a failure, not a
// hang.
func TestCorruptChildPointerEndsQueries(t *testing.T) {
	objs := makeObjects(12000, 16000, rand.New(rand.NewSource(31)))
	for _, cache := range []int{-1, 0} {
		for _, kind := range []string{"range", "nn"} {
			tree, root := corruptChildPointer(t, objs, cache)
			// A point inside the entry's box: the NN traversal pops it early.
			q := root.entries[0].boxes[0].Center()

			// The re-issued query meets the same page again — from the
			// store, or from the node cache that kept the decoded copy —
			// and must stop at it the same way.
			for _, attempt := range []string{"first", "re-issued"} {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				snap := tree.Snapshot()
				var accesses int
				var err error
				if kind == "range" {
					var st QueryStats
					_, st, err = snap.RangeQuery(ctx, Query{Rect: geom.NewRect(geom.Point{0, 0}, geom.Point{10000, 10000}), Prob: 0.5}, QueryOpts{})
					accesses = st.NodeAccesses
				} else {
					var st NNStats
					_, st, err = snap.NearestNeighbors(ctx, q, 10, QueryOpts{})
					accesses = st.NodeAccesses
				}
				snap.Close()
				cancel()
				var bad *pagefile.BadPageError
				if !errors.As(err, &bad) || bad.Page != root.page {
					t.Fatalf("cache %d, %s %s query: err %v after %d node accesses, want a BadPageError for page %d", cache, attempt, kind, err, accesses, root.page)
				}
				if accesses != 1 {
					t.Errorf("cache %d, %s %s query: %d node accesses, want 1 (the root)", cache, attempt, kind, accesses)
				}
			}
			// Scrub walks the same pointer and must stop at it too.
			_, corrupt := tree.Scrub()
			var bad *pagefile.BadPageError
			if len(corrupt) != 1 || !errors.As(corrupt[0], &bad) || bad.Page != root.page {
				t.Errorf("cache %d: Scrub found %v, want one BadPageError for page %d", cache, corrupt, root.page)
			}
		}
	}
}

// TestCorruptChildPointerEndsWalks: the same pointer back to the root must
// end every other path that reads tree nodes — the whole-tree walks and the
// insert and delete descents — with a BadPageError for the root page, and a
// failed mutation rolls back to the committed tree. Each once recursed or
// looped without end.
func TestCorruptChildPointerEndsWalks(t *testing.T) {
	objs := makeObjects(12000, 16000, rand.New(rand.NewSource(31)))
	tree, root := corruptChildPointer(t, objs, 0)
	// An insert whose descent takes the root's first entry, and a delete
	// whose descent tries that entry first.
	var ins, del Object
	for _, o := range objs {
		if ins.PDF == nil {
			c := Object{ID: 1 << 40, PDF: o.PDF}
			if e, err := tree.buildLeafEntry(c); err == nil && tree.chooseSubtree(root, tree.boundary(&e, true, &tree.ws.bound)) == 0 {
				ins = c
			}
		}
		if del.PDF == nil && containsEps(tree.boxAt(root.entries[0].boxes, 0), o.PDF.MBR(), 1e-7) {
			del = o
		}
	}
	if ins.PDF == nil || del.PDF == nil {
		t.Fatal("fixture: no insert or delete descends into the root's first entry")
	}
	cases := []struct {
		name     string
		op       func() error
		mutation bool
	}{
		{"IndexPages", func() error { _, err := tree.IndexPages(); return err }, false},
		{"ReachablePages", func() error { _, err := tree.ReachablePages(); return err }, false},
		{"CheckInvariants", tree.CheckInvariants, false},
		{"Insert", func() error { return tree.Insert(ins) }, true},
		{"Delete", func() error { return tree.Delete(del.ID) }, true},
	}
	for _, c := range cases {
		err := within(t, c.name, c.op)
		var bad *pagefile.BadPageError
		if !errors.Is(err, pagefile.ErrBadPage) || !errors.As(err, &bad) || bad.Page != root.page {
			t.Errorf("%s: err %v, want a BadPageError for page %d", c.name, err, root.page)
		}
		if !c.mutation {
			continue
		}
		if err := tree.Rollback(); err != nil {
			t.Fatalf("%s: rollback: %v", c.name, err)
		}
		if tree.Len() != len(objs) || tree.rootPage != root.page || tree.rootLevel != root.level {
			t.Errorf("%s: after rollback %d objects, root %d at level %d; want %d, %d at %d",
				c.name, tree.Len(), tree.rootPage, tree.rootLevel, len(objs), root.page, root.level)
		}
	}
}

func TestUpdateStatsAccumulate(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	objs := makeObjects(200, 400, rng)
	tree := buildTree(t, UTree, objs, 0)
	ins := tree.InsertStats()
	if ins.Ops != 200 || ins.PageWrites == 0 || ins.CPUTime == 0 {
		t.Fatalf("insert stats: %+v", ins)
	}
	for _, o := range objs[:50] {
		if err := tree.Delete(o.ID); err != nil {
			t.Fatal(err)
		}
	}
	del := tree.DeleteStats()
	if del.Ops != 50 || del.PageReads == 0 {
		t.Fatalf("delete stats: %+v", del)
	}
	tree.ResetCounters()
	if s := tree.InsertStats(); s.Ops != 0 {
		t.Fatal("reset did not clear stats")
	}
}

func TestScanAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	objs := makeObjects(300, 500, rng)
	scan := NewScan(objs, 9)
	for q := 0; q < 60; q++ {
		query := Query{Rect: randomQueryRect(rng, 500), Prob: 0.05 + rng.Float64()*0.9}
		got, stats, err := scan.RangeQuery(query)
		if err != nil {
			t.Fatal(err)
		}
		want := scan.BruteForce(query)
		if !sameIDs(resultIDs(got), resultIDs(want)) {
			t.Fatalf("scan query %d mismatch", q)
		}
		if stats.ProbComputations > len(objs) {
			t.Fatalf("more prob computations than objects: %d", stats.ProbComputations)
		}
	}
}

func TestKindString(t *testing.T) {
	if UTree.String() != "U-tree" || UPCR.String() != "U-PCR" {
		t.Fatal("Kind.String broken")
	}
}

func TestHistogramObjectsEndToEnd(t *testing.T) {
	// "Arbitrary pdfs": random histograms through the full index stack.
	rng := rand.New(rand.NewSource(15))
	var objs []Object
	for i := 0; i < 150; i++ {
		cx, cy := rng.Float64()*400, rng.Float64()*400
		w := make([]float64, 9)
		for k := range w {
			w[k] = rng.Float64()
		}
		rect := geom.NewRect(geom.Point{cx, cy}, geom.Point{cx + 30, cy + 24})
		objs = append(objs, Object{ID: int64(i), PDF: updf.NewHistogramRect(rect, []int{3, 3}, w)})
	}
	tree, err := New(Options{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range objs {
		if err := tree.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	scan := NewScan(objs, 9)
	for q := 0; q < 50; q++ {
		query := Query{Rect: randomQueryRect(rng, 400), Prob: 0.05 + rng.Float64()*0.9}
		got, _, err := rangeQuery(tree, query)
		if err != nil {
			t.Fatal(err)
		}
		want := scan.BruteForce(query)
		if !sameIDs(resultIDs(got), resultIDs(want)) {
			t.Fatalf("histogram query %d mismatch", q)
		}
	}
}
