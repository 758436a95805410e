package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
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
// load before any page is allocated.
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
	bad[len(bad)/2] = Object{ID: 9999, PDF: updf.NewUniformBall(geom.Point{1, 2, 3}, 1)}
	store := pagefile.NewMemStore()
	tree, err := New(Options{Dim: 2, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	pages := store.NumPages()
	if err := tree.BulkLoad(bad); err == nil {
		t.Fatal("mis-dimensioned object accepted")
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
			keys := clusteredKeys(rng, n)
			ids := rng.Perm(n)
			c.keys = keys
			checkCut(t, ids, keys, cutUniform(&c, append([]int(nil), ids...), capacity, minFill), capacity, minFill)
		}
		// Where every gap ties, the cut is the even one.
		for n := 1; n < 400; n += 7 {
			c.keys = make([]float64, n)
			groups := cutUniform(&c, identity(n), 36, 14)
			for j, cut := range cuts(groups) {
				if want := (j + 1) * n / len(groups); cut != want {
					t.Fatalf("n %d, tied keys: cut %d at %d, want the even cut's %d", n, j+1, cut, want)
				}
			}
		}
	})

	// Runs of centre (32 B) or compact (48 B) and full (112 B) entries,
	// clustered or mixed, cut with room for the largest entry of the run
	// and for a full one whatever the run holds.
	t.Run("bytes", func(t *testing.T) {
		rng := rand.New(rand.NewSource(43))
		var c runCutter
		for trial := 0; trial < 2000; trial++ {
			n := 1 + rng.Intn(3000)
			c.keys, c.w = clusteredKeys(rng, n), []int{0}
			share, big, small := rng.Float64(), 0, []int{32, 48}[trial/2%2]
			for i := 0; i < n; i++ {
				s := small
				// Full entries in a block of the run, or anywhere.
				if trial%2 == 0 && i < int(share*float64(n)) || trial%2 == 1 && rng.Float64() < share {
					s = 112
				}
				c.w, big = append(c.w, c.w[i]+s), max(big, s)
			}
			room := []int{big, 112}[trial/4%2]
			checkCutBytes(t, n, c.w, c.cut(identity(n), big, 14*112, room), big, 14*112, room)
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
// would make, or one more where such a packing has no legal cut; and each
// leaves r bytes free, r the most of room, room − big, room − 2·big, …
// that that many groups could leave free with one more of the largest
// entries free as well (for a run of one size and room for one entry, the
// room alone is enough: checkCut).
func checkCutBytes(t *testing.T, n int, w []int, groups [][]int, big, minFill, room int) {
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
	if at != n || len(groups) < k || len(groups) > k+1 {
		t.Fatalf("n %d, %d B: %d groups over %d entries, want %d", n, w[n], len(groups), at, k)
	}
}

// clusteredKeys returns n ascending keys in a few clusters, rounded so that
// many tie.
func clusteredKeys(rng *rand.Rand, n int) []float64 {
	centres := make([]float64, 1+rng.Intn(8))
	for i := range centres {
		centres[i] = rng.Float64() * 1000
	}
	spread := []float64{0.5, 3, 20}[rng.Intn(3)]
	keys := make([]float64, n)
	for i := range keys {
		keys[i] = math.Round(centres[rng.Intn(len(centres))] + rng.NormFloat64()*spread)
	}
	sort.Float64s(keys)
	return keys
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

// gapSum is the summed key gaps across the cuts, added left to right.
func gapSum(keys []float64, cuts []int) float64 {
	sum := 0.0
	for _, c := range cuts {
		sum += keys[c] - keys[c-1]
	}
	return sum
}

// checkCut holds one cut of a run to runCutter.cut's contract and, on runs
// of up to 60, to the best gap sum found by trying every legal cut.
func checkCut(t *testing.T, ids []int, keys []float64, groups [][]int, capacity, minFill int) {
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
	// legal is the band a size must lie in, whatever the cut.
	roomy := k*(capacity-1) >= n
	legal := func(s int) bool {
		return s >= minFill && s <= capacity && (!roomy || s < capacity) && s >= n/k-2 && s <= (n+k-1)/k+2
	}
	for j, g := range groups {
		if !legal(len(g)) {
			t.Fatalf("%s: group %d has %d entries (minFill %d, %d groups, room for a free slot: %v)",
				where(), j, len(g), minFill, k, roomy)
		}
	}
	got := cuts(groups)
	even := make([]int, k-1)
	for j := range even {
		even[j] = (j + 1) * n / k
		if abs(got[j]-even[j]) > capacity {
			t.Fatalf("%s: cut %d at %d, more than capacity from the even cut's %d: the DP is no longer O(n)", where(), j+1, got[j], even[j])
		}
	}
	sum := gapSum(keys, got)
	if e := gapSum(keys, even); sum < e {
		t.Fatalf("%s: gap sum %g below the even cut's %g", where(), sum, e)
	}
	if n > 60 {
		return
	}
	smallest, largest := capacity, 0
	for s := 1; s <= capacity; s++ {
		if legal(s) {
			smallest, largest = min(smallest, s), max(largest, s)
		}
	}
	best := math.Inf(-1)
	var try func(j, at int, cs []int)
	try = func(j, at int, cs []int) {
		if j == k {
			if at == n {
				best = max(best, gapSum(keys, cs))
			}
			return
		}
		for s := 1; s <= capacity && at+s <= n; s++ {
			c, rest := at+s, k-j-1
			if legal(s) && c+rest*smallest <= n && n <= c+rest*largest {
				if j < k-1 {
					try(j+1, c, append(cs, c))
				} else {
					try(j+1, c, cs)
				}
			}
		}
	}
	try(0, 0, nil)
	if sum != best {
		t.Fatalf("%s: gap sum %g, the best legal cut's is %g", where(), sum, best)
	}
}

// TestBulkLoadGoldenMixed pins the pages BulkLoad and Commit write for a
// mix of every leaf entry form — balls (centre entries), rectangles and
// Gaussian rectangles (compact), and 300 rectangles of distinct sides,
// whose shapes outgrow the table's page, so the last of them are full
// entries without a shape — in a U-tree and in a U-PCR, whose small
// fan-out makes STR tile an inner level too, at GOMAXPROCS 1, 2 and 4. The
// digests were taken before the load moved onto flat slabs.
func TestBulkLoadGoldenMixed(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	objs := makeObjects(1500, 2000, rng)
	for i := 0; i < 300; i++ {
		lo := geom.Point{rng.Float64() * 2000, rng.Float64() * 2000}
		hi := geom.Point{lo[0] + 5 + rng.Float64()*40, lo[1] + 5 + rng.Float64()*40}
		objs = append(objs, Object{ID: int64(len(objs)), PDF: updf.NewUniformRect(geom.NewRect(lo, hi))})
	}
	want := map[Kind]string{UTree: "f2ca7cfcad27bf8f", UPCR: "5b7ef35c9e040423"}
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
			h, buf := sha256.New(), make([]byte, pagefile.PageSize)
			for id := pagefile.PageID(0); int(id) < store.NumPages(); id++ {
				if store.Read(id, buf) == nil {
					h.Write(binary.LittleEndian.AppendUint32(nil, uint32(id)))
					h.Write(buf)
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)[:8]); got != want[kind] {
				t.Errorf("GOMAXPROCS %d, %v of %d objects, height %d: page digest %s, want %s", procs, kind, len(objs), tree.Height(), got, want[kind])
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}
