package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/geom"
	"repro/internal/pagefile"
	"repro/internal/pcr"
	"repro/internal/updf"
)

// bulkTree bulk-loads objs into a fresh tree.
func bulkTree(t *testing.T, opt Options, objs []Object) *Tree {
	t.Helper()
	tree, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tree.BulkLoad(objs); err != nil {
		t.Fatal(err)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestBulkLoadClustersRecords pins the layout stage 3 produces — data pages
// follow leaf order and a leaf's records share a page or two — and that the
// clustered tree answers like brute force and like an Insert-loaded tree.
func TestBulkLoadClustersRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	objs := makeObjects(600, 1200, rng) // all four pdf families
	bulk := bulkTree(t, Options{Dim: 2, ExactRefinement: true}, objs)

	// Walk the leaves left to right.
	var leaves [][]pagefile.DataAddr
	perPage := make(map[pagefile.PageID]int)
	last := pagefile.PageID(0)
	err := bulk.walk(bulk.rootPage, bulk.rootLevel, func(n *node) error {
		if !n.leaf() {
			return nil
		}
		addrs := make([]pagefile.DataAddr, len(n.entries))
		for i := range n.entries {
			a := n.entries[i].addr
			if a.Page < last {
				t.Errorf("leaf %d entry %d: data page %d after %d", len(leaves), i, a.Page, last)
			}
			last = a.Page
			perPage[a.Page]++
			addrs[i] = a
		}
		leaves = append(leaves, addrs)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(leaves) < 10 {
		t.Fatalf("only %d leaves; the fixture no longer spans enough pages", len(leaves))
	}
	// The emptiest full data page (the last one is still accepting appends).
	recsPerPage := len(objs)
	for page, n := range perPage {
		if page != bulk.data.CurrentPage() && n < recsPerPage {
			recsPerPage = n
		}
	}
	bound := (bulk.leafCap+recsPerPage-1)/recsPerPage + 1
	for i, addrs := range leaves {
		pages := make(map[pagefile.PageID]bool)
		for _, a := range addrs {
			pages[a.Page] = true
		}
		if len(pages) > bound {
			t.Errorf("leaf %d references %d data pages, want ≤ %d (%d records per page)",
				i, len(pages), bound, recsPerPage)
		}
	}

	inc := buildTree(t, UTree, objs, 0)
	scan := NewScan(objs, 9, 0, true, 1)
	for q := 0; q < 40; q++ {
		query := Query{Rect: randomQueryRect(rng, 1200), Prob: 0.05 + rng.Float64()*0.9}
		got, _, err := rangeQuery(bulk, query)
		if err != nil {
			t.Fatal(err)
		}
		if want := scan.BruteForce(query); !sameIDs(resultIDs(got), resultIDs(want)) {
			t.Fatalf("query %d: bulk-loaded tree and brute force disagree", q)
		}
		fromInc, _, err := rangeQuery(inc, query)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(resultIDs(got), resultIDs(fromInc)) {
			t.Fatalf("query %d: bulk-loaded and Insert-loaded trees disagree", q)
		}
	}
}

// TestBulkLoadParallelBuild checks stage 1 against the serial loop it
// replaced, at whatever GOMAXPROCS the run has (CI runs it with -cpu 1,4
// under -race), and that a bad object fails the load before any page is
// allocated.
func TestBulkLoadParallelBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	objs := makeObjects(240, 1000, rng)
	sameAsSerial := func(kind Kind, objs []Object) {
		t.Helper()
		par, _ := New(Options{Dim: 2, Kind: kind})
		got, err := par.buildLeafEntries(objs)
		if err != nil {
			t.Fatal(err)
		}
		ser, _ := New(Options{Dim: 2, Kind: kind})
		for i, o := range objs {
			want, err := ser.buildLeafEntry(o)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Fatalf("%v: entry %d differs from the serial build:\n got  %+v\n want %+v", kind, i, got[i], want)
			}
		}
		// The comparison covers the shape references, which the serial loop
		// hands out in input order: workers must not have had a say in them.
		if !reflect.DeepEqual(par.shapes, ser.shapes) {
			t.Fatalf("%v: shape tables differ: %d and %d shapes", kind, len(par.shapes), len(ser.shapes))
		}
		if len(objs) > 100 && len(par.shapes) < 3 {
			t.Fatalf("%v: %d shapes among %d objects; the reference check is vacuous", kind, len(par.shapes), len(objs))
		}
	}
	sameAsSerial(UTree, objs)
	sameAsSerial(UPCR, objs)

	// A shape's offsets carry the rounding of its prototype, the first object
	// of the shape in input order. Lead with an object whose offsets differ
	// from the next ones' own: a build that took offsets from whichever
	// object a worker reached first would differ from the serial loop.
	cat := pcr.UniformCatalog(9)
	first, found := objs[0], false
	for _, o := range objs[4:] {
		if o.PDF.ShapeKey() != first.PDF.ShapeKey() {
			continue
		}
		seeded := pcr.NewQuantileCache()
		pcr.Compute(first.PDF, cat, seeded)
		if !reflect.DeepEqual(pcr.Compute(o.PDF, cat, seeded), pcr.Compute(o.PDF, cat, pcr.NewQuantileCache())) {
			for _, kind := range []Kind{UTree, UPCR} {
				sameAsSerial(kind, []Object{first, o, {ID: -1, PDF: o.PDF}, {ID: -2, PDF: o.PDF}})
			}
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no pair of same-shape objects with different quantile rounding; the prototype check is vacuous")
	}

	bad := append([]Object(nil), objs...)
	bad[len(bad)/2] = Object{ID: 9999, PDF: updf.NewUniformBall(geom.Point{1, 2, 3}, 1)}
	store := pagefile.NewMemStore()
	tree, err := New(Options{Dim: 2, Store: store, ExactRefinement: true})
	if err != nil {
		t.Fatal(err)
	}
	pages := store.NumPages()
	if _, err := tree.BulkLoad(bad); err == nil {
		t.Fatal("mis-dimensioned object accepted")
	}
	if got := store.NumPages(); got != pages {
		t.Fatalf("failed load allocated pages: %d → %d", pages, got)
	}
	if tree.Len() != 0 {
		t.Fatalf("failed load left %d objects", tree.Len())
	}
	if _, err := tree.BulkLoad(objs); err != nil {
		t.Fatalf("load after a failed load: %v", err)
	}
	if tree.Len() != len(objs) {
		t.Fatalf("Len = %d, want %d", tree.Len(), len(objs))
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBulkLoadEntriesDeterministic: a leaf entry is a function of its
// object and the persisted shape table alone. BulkLoad at GOMAXPROCS 1 and 4
// writes the same pages byte for byte, and an object inserted into a
// reopened tree gets the entry bytes it gets in the fresh tree the file was
// saved from — also one whose own quantile offsets round differently from
// its prototype's.
func TestBulkLoadEntriesDeterministic(t *testing.T) {
	objs := makeObjects(500, 1000, rand.New(rand.NewSource(83)))
	load := func(procs int) (*Tree, *pagefile.MemStore) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		store := pagefile.NewMemStore()
		tree, err := New(Options{Dim: 2, Store: store, Persist: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tree.BulkLoad(objs); err != nil {
			t.Fatal(err)
		}
		if err := tree.Commit(); err != nil {
			t.Fatal(err)
		}
		return tree, store
	}
	one, s1 := load(1)
	four, s4 := load(4)
	if s1.NumPages() != s4.NumPages() {
		t.Fatalf("%d pages at GOMAXPROCS 1, %d at 4", s1.NumPages(), s4.NumPages())
	}
	a, b := make([]byte, pagefile.PageSize), make([]byte, pagefile.PageSize)
	for id := pagefile.PageID(0); int(id) < s1.NumPages(); id++ {
		ea, eb := s1.Read(id, a), s4.Read(id, b)
		if (ea == nil) != (eb == nil) || ea == nil && !bytes.Equal(a, b) {
			t.Fatalf("page %d differs between GOMAXPROCS 1 and 4 (read errors %v, %v)", id, ea, eb)
		}
	}

	re, err := Open(s4, four.MetaPage(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, o := range objs {
		ref := one.shapeRefs[o.PDF.ShapeKey()]
		if ref == 0 {
			continue
		}
		if o.PDF == one.shapes[ref-1].pdf ||
			reflect.DeepEqual(pcr.Compute(o.PDF, one.cat, nil), one.shapes[ref-1].fit.PCRs(o.PDF.Center(), o.PDF.MBR())) {
			continue // the prototype, or rounds as it does
		}
		found++
		o.ID += 1 << 40
		fresh, err := one.buildLeafEntry(o)
		if err != nil {
			t.Fatal(err)
		}
		reopened, err := re.buildLeafEntry(o)
		if err != nil {
			t.Fatal(err)
		}
		fb, rb := make([]byte, one.leafEntrySize), make([]byte, re.leafEntrySize)
		one.encodeLeafEntry(&fresh, fb)
		re.encodeLeafEntry(&reopened, rb)
		if !bytes.Equal(fb, rb) {
			t.Fatalf("object %d (%s): entry in the reopened tree differs from the fresh tree's:\n % x\n % x", o.ID, o.PDF.ShapeKey(), rb, fb)
		}
		if _, err := re.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	if found < 10 {
		t.Fatalf("%d objects round differently from their prototypes; the reopen check is thin", found)
	}
	if err := re.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBulkLoadNNSharesDataPages: best-first NN pops spatial neighbours in
// a row, and on a clustered file they share data pages — the traversal reads
// each such page once, and returns what brute force returns.
func TestBulkLoadNNSharesDataPages(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	objs := makeObjects(900, 1000, rng)
	tree := bulkTree(t, Options{Dim: 2, MCSamples: 500}, objs)
	for trial := 0; trial < 10; trial++ {
		q := geom.Point{rng.Float64() * 1000, rng.Float64() * 1000}
		got, stats, err := nearestNeighbors(tree, q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteNN(objs, q, 10, tree.samples); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: neighbours differ from brute force:\n got  %v\n want %v", trial, got, want)
		}
		if stats.RefinementIOs >= stats.DistanceComps {
			t.Fatalf("trial %d: %d data-page reads for %d refined objects",
				trial, stats.RefinementIOs, stats.DistanceComps)
		}
	}
}
