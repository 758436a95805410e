package core

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
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
	if err := tree.BulkLoad(objs); err != nil {
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
	objs := makeObjects(1200, 1700, rng) // all four pdf families
	bulk := bulkTree(t, Options{Dim: 2}, objs)

	// Walk the leaves left to right.
	var leaves [][]DataAddr
	perPage := make(map[pagefile.PageID]int)
	last := pagefile.PageID(0)
	err := bulk.walk(bulk.rootPage, bulk.rootLevel, func(n *node) error {
		if !n.leaf() {
			return nil
		}
		addrs := make([]DataAddr, len(n.entries))
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
		if page != bulk.appendPage && n < recsPerPage {
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
	scan := NewScan(objs, 9)
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

// leafEntries is every object's leaf entry, built one by one
// (buildLeafEntry).
func leafEntries(tree *Tree, objs []Object) ([]entry, error) {
	entries := make([]entry, len(objs))
	for i, o := range objs {
		var err error
		if entries[i], err = tree.buildLeafEntry(o); err != nil {
			return nil, err
		}
	}
	return entries, nil
}

// TestBulkLoadParallelBuild checks stage 1 — each object's encoded entry,
// boundary boxes and shape reference in the slabs — against the serial
// loop of buildLeafEntry it replaced, at whatever GOMAXPROCS the run has
// (CI runs it with -cpu 1,4 under -race), and that a bad object fails the
// load before any page is allocated — of several, the one with the
// smallest ID.
func TestBulkLoadParallelBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	objs := makeObjects(240, 1000, rng)
	sameAsSerial := func(kind Kind, objs []Object) {
		t.Helper()
		par, _ := New(Options{Dim: 2, Kind: kind})
		got, err := par.loadLeaves(objs)
		if err != nil {
			t.Fatal(err)
		}
		ser, _ := New(Options{Dim: 2, Kind: kind})
		es, stride := ser.leafEntrySize, 4*ser.innerBoxes()
		for i, o := range objs {
			want, err := ser.buildLeafEntry(o)
			if err != nil {
				t.Fatal(err)
			}
			enc := make([]byte, es)
			enc = enc[:ser.encodeLeafEntry(&want, enc)]
			var bnd []float64
			for _, r := range ser.boundary(&want, true, &ser.ws.bound) {
				bnd = append(append(bnd, r.Lo...), r.Hi...)
			}
			if ent := got.ent[got.at[i]:got.at[i+1]]; !bytes.Equal(ent, enc) || got.ref[i] != want.shape ||
				!reflect.DeepEqual(got.row(i, stride), bnd) {
				t.Fatalf("%v: entry %d differs from the serial build:\n got  % x, shape %d, boundary %v\n want % x, shape %d, boundary %v",
					kind, i, ent, got.ref[i], got.row(i, stride), enc, want.shape, bnd)
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
	bad[3] = Object{ID: 9998}
	bad[len(bad)/2] = Object{ID: 9999, PDF: updf.NewUniformBall(geom.Point{1, 2, 3}, 1)}
	bad[len(bad)-1] = Object{ID: -5}
	store := pagefile.NewMemStore()
	tree, err := New(Options{Dim: 2, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	pages := store.NumPages()
	if err := tree.BulkLoad(bad); err == nil || !strings.Contains(err.Error(), "object -5 ") {
		t.Fatalf("three invalid objects: error %v, want the one of object -5, the smallest ID", err)
	}
	if got := store.NumPages(); got != pages {
		t.Fatalf("failed load allocated pages: %d → %d", pages, got)
	}
	if tree.Len() != 0 {
		t.Fatalf("failed load left %d objects", tree.Len())
	}
	if err := tree.BulkLoad(objs); err != nil {
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
		if err := tree.BulkLoad(objs); err != nil {
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

	re, _, err := Open(s4, four.MetaPage(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, o := range objs {
		ref := one.shapeRefs[o.PDF.ShapeKey()]
		if ref == 0 {
			continue
		}
		if o.PDF == one.shapes[ref-1].fit.Proto() ||
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
		if err := re.Insert(o); err != nil {
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

// TestBulkLoadLeavesRoom: STR's run cut keeps the node count of a full
// packing but leaves every node room for one more entry of any form
// wherever the run has it to spare, so the first inserts after a load
// neither split nor reinsert.
func TestBulkLoadLeavesRoom(t *testing.T) {
	// Runs of one size: cut at j·n/k.
	t.Run("cut", func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		var c runCutter
		for trial := 0; trial < 3000; trial++ {
			capacity := 4 + rng.Intn(37)
			minFill := 2 * capacity / 5
			n := 1 + rng.Intn(60)
			if trial%3 == 0 {
				n = 1 + rng.Intn(5000)
			}
			ids := rng.Perm(n)
			groups := cutUniform(&c, slices.Clone(ids), capacity, minFill)
			checkCut(t, ids, groups, capacity, minFill)
			if n <= 60 {
				size := pageBytes / capacity
				checkCutCount(t, c.w, groups, size, minFill*size, size)
			}
		}
	})

	// Runs of centre (32 B) or compact (48 B) and full (112 B) entries,
	// clustered or mixed, cut with room for the largest entry of the run
	// and for a full one whatever the run holds; then runs of up to 60
	// entries of three sizes in that ratio (32 : 48 : 112), the largest
	// filling a page at capacity 4 to 40. Whenever any cut into a full
	// packing's count of groups meets the contract, the cutter finds one.
	t.Run("bytes", func(t *testing.T) {
		rng := rand.New(rand.NewSource(43))
		var c runCutter
		check := func(n, big, minFill, room int) {
			groups := c.cut(identity(n), big, minFill, room)
			checkCutBytes(t, n, c.w, groups, big, minFill, room, 1)
			checkCutCount(t, c.w, groups, big, minFill, room)
		}
		for trial := 0; trial < 2000; trial++ {
			n := 1 + rng.Intn(3000)
			c.w = []int{0}
			share, big, small := rng.Float64(), 0, []int{32, 48}[trial/2%2]
			for i := 0; i < n; i++ {
				s := small
				// Full entries in a block of the run, or anywhere.
				if trial%2 == 0 && i < int(share*float64(n)) || trial%2 == 1 && rng.Float64() < share {
					s = 112
				}
				c.w, big = append(c.w, c.w[i]+s), max(big, s)
			}
			check(n, big, 14*112, []int{big, 112}[trial/4%2])
		}
		rng = rand.New(rand.NewSource(44))
		for trial := 0; trial < 3000; trial++ {
			capacity := 4 + rng.Intn(37)
			full := pageBytes / capacity
			forms := []int{full * 2 / 7, full * 3 / 7, full}
			n, share, big := 1+rng.Intn(60), rng.Float64(), 0
			c.w = []int{0}
			for i := 0; i < n; i++ {
				s := forms[rng.Intn(2)]
				if rng.Float64() < share {
					s = full
				}
				c.w, big = append(c.w, c.w[i]+s), max(big, s)
			}
			check(n, big, 2*capacity/5*full, []int{big, full}[trial%2])
		}
	})

	t.Run("tree", func(t *testing.T) {
		rng := rand.New(rand.NewSource(30))
		objs := makeObjects(1800, 1460, rng)
		tree := bulkTree(t, Options{Dim: 2}, objs)
		var leaves []*node
		if err := tree.walk(tree.rootPage, tree.rootLevel, func(n *node) error {
			if n.leaf() {
				leaves = append(leaves, n)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(leaves) < 20 {
			t.Fatalf("%d leaves; the fixture no longer spans 20", len(leaves))
		}
		for i, l := range leaves {
			if b := tree.entryBytes(l.entries, true); b+tree.leafEntrySize > pageBytes {
				t.Fatalf("leaf %d of %d holds %d entries in %d of %d bytes; every run of this fixture has a full entry's room to spare",
					i, len(leaves), len(l.entries), b, pageBytes)
			}
		}
		pages, err := tree.IndexPages()
		if err != nil {
			t.Fatal(err)
		}
		// One new object on an entry of each of 20 leaves spread over the
		// tile order: the same pdf, so it lands where that entry lives.
		for i := 0; i < 20; i++ {
			l := leaves[i*len(leaves)/20]
			e := l.entries[len(l.entries)/2]
			o := objs[e.id]
			o.ID = int64(len(objs) + i)
			if err := tree.Insert(o); err != nil {
				t.Fatal(err)
			}
		}
		if got, err := tree.IndexPages(); err != nil || got != pages {
			t.Fatalf("IndexPages %d → %d (%v) after 20 inserts into leaves with a free slot", pages, got, err)
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// cutUniform is c.cut on a run of entries of one size, the size that fills
// a page at capacity entries, with minFill counted in entries: for such
// runs the cut is the one by count.
func cutUniform(c *runCutter, ids []int, capacity, minFill int) [][]int {
	size := pageBytes / capacity
	c.w = c.w[:0]
	for i := 0; i <= len(ids); i++ {
		c.w = append(c.w, i*size)
	}
	return c.cut(ids, size, minFill*size, size)
}

// checkCutBytes holds a cut of a run of entries of more than one size, whose
// byte prefix sums are w, to runCutter.cut's contract: the groups are the
// run in order; each fits a page and, where there are several, holds
// minFill; there are as many as a full packing of the largest entries
// would make, or up to spare more where such a packing has no legal cut
// (checkCutCount holds the count to the fewest any cut gives); and each
// leaves r bytes free, r the most of room, room − big, room − 2·big, …
// that that many groups could leave free with one more of the largest
// entries free as well (for a run of one size and room for one entry, the
// room alone is enough: checkCut).
func checkCutBytes(t *testing.T, n int, w []int, groups [][]int, big, minFill, room, spare int) {
	t.Helper()
	full := pageBytes / big * big
	k := (w[n] + full - 1) / full
	r := room
	for r > 0 && k*(full-r-big) < w[n] {
		r -= big
	}
	at := 0
	for j, g := range groups {
		for _, id := range g {
			if id != at {
				t.Fatalf("n %d: group %d holds entry %d, want %d", n, j, id, at)
			}
			at++
		}
		b := w[at] - w[at-len(g)]
		if b > pageBytes || len(groups) > 1 && b < minFill {
			t.Fatalf("n %d, %d B: group %d of %d holds %d B (minFill %d)", n, w[n], j, len(groups), b, minFill)
		}
		if len(groups) == k && k > 1 && r > 0 && b > full-r {
			t.Fatalf("n %d, %d B: group %d of %d holds %d B, not %d B of room", n, w[n], j, k, b, r)
		}
	}
	if at != n || len(groups) < k || len(groups) > k+spare {
		t.Fatalf("n %d, %d B: %d groups over %d entries, want %d to %d", n, w[n], len(groups), at, k, k+spare)
	}
}

// checkCutCount holds a cut of the run whose byte prefix sums are w to the
// rest of runCutter.cut's contract, trying every cut: it has the fewest
// groups, from a full packing's count on, that any cut into groups within
// cut's band has, and leaves the most of room, room − big, …, 0 bytes free
// in every group that any such cut leaves.
func checkCutCount(t *testing.T, w []int, groups [][]int, big, minFill, room int) {
	t.Helper()
	n, full := len(w)-1, pageBytes/big*big
	small := w[n]
	for i := range n {
		small = min(small, w[i+1]-w[i])
	}
	for k := max(1, (w[n]+full-1)/full); k <= n; k++ {
		for r := room; ; r -= big {
			upper := full - max(r, 0)
			lo, hi := max(minFill, (n/k-2)*small), min(upper, ((n+k-1)/k+2)*big)
			if k == 1 || k*upper >= w[n] && anyCut(w, k, lo, hi) {
				if len(groups) != k {
					t.Fatalf("n %d, %d B: %d groups, but a cut into %d of %d to %d B exists", n, w[n], len(groups), k, lo, hi)
				}
				at := 0
				for j, g := range groups {
					if b := w[at+len(g)] - w[at]; k > 1 && b > upper {
						t.Fatalf("n %d, %d B: group %d of %d holds %d B, but a cut of at most %d B a group exists", n, w[n], j, k, b, upper)
					}
					at += len(g)
				}
				return
			}
			if r <= 0 {
				break
			}
		}
	}
	t.Fatalf("n %d, %d B: no cut into groups exists, yet the cutter returned %d", n, w[n], len(groups))
}

// anyCut reports whether any cut of the run whose byte prefix sums are w
// into k consecutive groups gives each group lo to hi bytes, lo > 0. After
// j groups, reach[i+1] counts the entry counts p ≤ i that j groups of lo to
// hi bytes can use; j + 1 groups can use i where one of them, p, has
// w[i] − hi ≤ w[p] ≤ w[i] − lo.
func anyCut(w []int, k, lo, hi int) bool {
	n := len(w) - 1
	reach, next := make([]int, n+2), make([]int, n+2)
	for i := range n + 1 {
		reach[i+1] = 1 // no groups: p = 0
	}
	for range k {
		for i, a, b := 0, 0, 0; i <= n; i++ {
			for a <= n && w[a] < w[i]-hi {
				a++
			}
			for b <= n && w[b] <= w[i]-lo {
				b++
			}
			next[i+1] = next[i]
			if b > a && reach[b] > reach[a] {
				next[i+1]++
			}
		}
		reach, next = next, reach
	}
	return reach[n+1] > reach[n]
}

// checkCut holds one cut of a run of entries of one size to runCutter.cut's
// contract: ⌈n/capacity⌉ groups that concatenate to the run, each within
// the band, minFill and a page, with a free slot wherever the run has one
// to spare, cut exactly at the even split's j·n/k.
func checkCut(t *testing.T, ids []int, groups [][]int, capacity, minFill int) {
	t.Helper()
	n := len(ids)
	k := (n + capacity - 1) / capacity
	where := func() string { return fmt.Sprintf("n %d, capacity %d", n, capacity) }
	if len(groups) != k {
		t.Fatalf("%s: %d groups, want ⌈n/capacity⌉ = %d", where(), len(groups), k)
	}
	var all []int
	for _, g := range groups {
		all = append(all, g...)
	}
	if !reflect.DeepEqual(all, ids) {
		t.Fatalf("%s: the groups do not concatenate to the run", where())
	}
	if k == 1 {
		return
	}
	roomy := k*(capacity-1) >= n
	for j, g := range groups {
		if s := len(g); s < minFill || s > capacity || roomy && s == capacity || s < n/k-2 || s > (n+k-1)/k+2 {
			t.Fatalf("%s: group %d has %d entries (minFill %d, %d groups, room for a free slot: %v)",
				where(), j, s, minFill, k, roomy)
		}
	}
	for j, cut := range cuts(groups) {
		if want := (j + 1) * n / k; cut != want {
			t.Fatalf("%s: cut %d at %d, want the even split's %d", where(), j+1, cut, want)
		}
	}
}

// cuts returns where each group but the last ends.
func cuts(groups [][]int) []int {
	var out []int
	end := 0
	for _, g := range groups[:len(groups)-1] {
		end += len(g)
		out = append(out, end)
	}
	return out
}

// FuzzRunCutter: a run of centre, compact and full leaf entries in the
// fuzzer's order — each byte picks a form, its value mod 3 — of a 2-D
// (32, 48, 112 B) or a 3-D (40, 64, 160 B) U-tree, cut with room for the
// run's largest entry or for a full one. The cut meets checkCutBytes, but
// for its count, which checkCutCount holds to the fewest any cut in the
// band gives: in 3-D the seed run below has no cut into a full packing's
// k = 101 groups or into k + 1, and is cut into 103. Runs are held to
// 5,000 entries, which keeps checkCutCount's search of every cut fast. The
// seed corpus holds a run of 2,799 entries that the DP cuts into 71 nodes
// where a cutter that takes the position nearest the even cut inside the
// same band needs 73.
func FuzzRunCutter(f *testing.F) {
	type forms struct {
		size    [3]int
		minFill int
	}
	var dims [2]forms
	for i := range dims {
		tree, err := New(Options{Dim: 2 + i})
		if err != nil {
			f.Fatal(err)
		}
		dims[i] = forms{[3]int{tree.centreEntrySize, tree.compactEntrySize, tree.leafEntrySize}, tree.minLeaf}
	}
	rng := rand.New(rand.NewSource(57))
	share, run := rng.Float64(), make([]byte, 2799)
	for i := range run {
		run[i] = byte(rng.Intn(2))
		if rng.Float64() < share {
			run[i] = 2
		}
	}
	f.Add(run, false, false)
	f.Add(run, true, true)
	f.Add(bytes.Repeat([]byte{2}, 37), false, false)
	f.Add(bytes.Repeat([]byte{0, 0, 0, 1, 2}, 300), true, true)
	f.Add([]byte{0}, false, true)
	f.Fuzz(func(t *testing.T, run []byte, threeD, fullRoom bool) {
		if len(run) == 0 || len(run) > 5000 {
			return
		}
		d := dims[0]
		if threeD {
			d = dims[1]
		}
		w, big := []int{0}, 0
		for i, b := range run {
			s := d.size[b%3]
			w, big = append(w, w[i]+s), max(big, s)
		}
		room := big
		if fullRoom {
			room = d.size[2]
		}
		c := runCutter{w: w}
		groups := c.cut(identity(len(run)), big, d.minFill, room)
		checkCutBytes(t, len(run), w, groups, big, d.minFill, room, len(run))
		checkCutCount(t, w, groups, big, d.minFill, room)
	})
}

// TestBulkLoadGoldenMixed pins the pages BulkLoad and Commit write for a
// mix of every leaf entry form — balls (centre entries), rectangles and
// Gaussian rectangles (compact), and 300 rectangles of distinct sides,
// whose shapes outgrow the table's page, so the last of them are full
// entries without a shape — in a U-tree and in a U-PCR, whose small
// fan-out makes STR tile an inner level too, at GOMAXPROCS 1, 2 and 4. The
// digests were taken before the load moved onto flat slabs, again when
// data pages became dense (UTR8) — with record addresses masked, the leaf
// entries and the objects their records decode to are the UTR7 writer's —
// and again when STR's run cut became the even split, which moves 20 cuts
// in all 5 of the U-tree's runs and 91 in 12 of the U-PCR's 16, by at most
// 15 and 4 entries, and keeps every run's node count.
func TestBulkLoadGoldenMixed(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	objs := makeObjects(1500, 2000, rng)
	for i := 0; i < 300; i++ {
		lo := geom.Point{rng.Float64() * 2000, rng.Float64() * 2000}
		hi := geom.Point{lo[0] + 5 + rng.Float64()*40, lo[1] + 5 + rng.Float64()*40}
		objs = append(objs, Object{ID: int64(len(objs)), PDF: updf.NewUniformRect(geom.NewRect(lo, hi))})
	}
	want := map[Kind]string{UTree: "87a24ab6e3364688", UPCR: "904bed183585560c"}
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, kind := range []Kind{UTree, UPCR} {
			store := pagefile.NewMemStore()
			tree, err := New(Options{Dim: 2, Kind: kind, Store: store, Persist: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := tree.BulkLoad(objs); err != nil {
				t.Fatal(err)
			}
			if err := tree.Commit(); err != nil {
				t.Fatal(err)
			}
			if kind == UTree && tree.unshaped == 0 {
				t.Fatal("no leaf entry without a shape; the fixture no longer holds every form")
			}
			if got := storeDigest(store); got != want[kind] {
				t.Errorf("GOMAXPROCS %d, %v of %d objects, height %d: page digest %s, want %s", procs, kind, len(objs), tree.Height(), got, want[kind])
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// storeDigest hashes every page of store that reads, page id and bytes.
func storeDigest(store *pagefile.MemStore) string {
	h, buf := sha256.New(), make([]byte, pagefile.PageSize)
	for id := pagefile.PageID(0); int(id) < store.NumPages(); id++ {
		if store.Read(id, buf) == nil {
			h.Write(binary.LittleEndian.AppendUint32(nil, uint32(id)))
			h.Write(buf)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// tiedObjects returns n objects — uniform and Con-Gau balls, rectangles of
// two sizes, and unkeyed mixtures — whose centres lie on a 25-unit grid
// clamped to [100, 900]², so that many share a coordinate, whole rows of
// them on the clamped border, and some share their centre. IDs are a
// permutation of [0, n), unrelated to the order of the slice.
func tiedObjects(n int, rng *rand.Rand) []Object {
	clamp := func(v int) float64 { return float64(min(900, max(100, 25*v))) }
	ids := rng.Perm(n)
	objs := make([]Object, n)
	for i := range objs {
		c := geom.Point{clamp(rng.Intn(41)), clamp(rng.Intn(41))}
		var p updf.PDF
		switch i % 5 {
		case 0:
			p = updf.NewUniformBall(c, 25)
		case 1:
			p = updf.NewConGauBall(c, 25, 12.5)
		case 2, 3:
			w := 20 + 10*float64(i%2)
			p = updf.NewUniformRect(geom.NewRect(geom.Point{c[0] - w, c[1] - 15}, geom.Point{c[0] + w, c[1] + 15}))
		default:
			p = updf.NewMixture([]updf.PDF{updf.NewUniformBall(c, 8), updf.NewUniformBall(geom.Point{c[0] + 10, c[1]}, 8)}, []float64{1, 1})
		}
		objs[i] = Object{ID: int64(ids[i]), PDF: p}
	}
	return objs
}

// TestBulkLoadTotalOrder: STR sorts on a total order — coordinate, the
// other coordinates cyclically, then object ID at the leaves and node index
// above — and the shape table takes each shape's prototype from its
// smallest ID, so a bulk-loaded tree is a function of its object set: at
// GOMAXPROCS 1, 2 and 4 a load with a stable sort swapped in, a load of the
// objects shuffled and one with their order reversed — every tie the other
// way round — write the pages the load of the objects in ID order writes,
// byte for byte, in a U-tree and in a U-PCR (whose small fan-out makes STR
// tile an inner level too).
func TestBulkLoadTotalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	objs := tiedObjects(4000, rng)
	byID := slices.Clone(objs)
	slices.SortFunc(byID, func(a, b Object) int { return cmp.Compare(a.ID, b.ID) })
	shuffled := slices.Clone(objs)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	reversed := slices.Clone(byID)
	slices.Reverse(reversed)

	// The fixture must tie: on a coordinate along the clamped border, and
	// on whole centres.
	border, centres := 0, map[[2]float64]int{}
	for _, o := range objs {
		c := o.PDF.Center()
		if c[0] == 100 || c[0] == 900 || c[1] == 100 || c[1] == 900 {
			border++
		}
		centres[[2]float64{c[0], c[1]}]++
	}
	if border < 400 || len(centres) > len(objs)*3/4 {
		t.Fatalf("%d objects on the border, %d distinct centres among %d: the fixture ties too little", border, len(centres), len(objs))
	}

	load := func(kind Kind, objs []Object) (string, int) {
		t.Helper()
		store := pagefile.NewMemStore()
		tree, err := New(Options{Dim: 2, Kind: kind, Store: store, Persist: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.BulkLoad(objs); err != nil {
			t.Fatal(err)
		}
		if err := tree.Commit(); err != nil {
			t.Fatal(err)
		}
		return storeDigest(store), tree.Height()
	}
	pdq := sortKeys
	defer func() { sortKeys = pdq }()
	for _, kind := range []Kind{UTree, UPCR} {
		want, height := load(kind, byID)
		if kind == UPCR && height < 3 {
			t.Fatalf("U-PCR of %d objects has height %d: STR tiles no inner level", len(objs), height)
		}
		for _, procs := range []int{1, 2, 4} {
			prev := runtime.GOMAXPROCS(procs)
			for _, c := range []struct {
				name string
				objs []Object
				sort func([]keyIdx, func(a, b keyIdx) int)
			}{
				{"input order", objs, nil},
				{"stable sort", objs, slices.SortStableFunc[[]keyIdx, keyIdx]},
				{"shuffled", shuffled, nil},
				{"reversed", reversed, nil},
			} {
				sortKeys = pdq
				if c.sort != nil {
					sortKeys = c.sort
				}
				if got, _ := load(kind, c.objs); got != want {
					t.Errorf("%v, GOMAXPROCS %d, %s: page digest %s, want %s (the objects in ID order)", kind, procs, c.name, got, want)
				}
			}
			runtime.GOMAXPROCS(prev)
		}
	}
}
