package core

import (
	"encoding/binary"
	"encoding/json"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/pagefile"
	"repro/internal/updf"
)

// TestCentreEntryMBRExact: a centre entry's MBR is its shape's box at the
// centre (updf.Recentrer.MBRAt), and that is bit for bit the MBR of the
// prototype recentred there and of the pdf that was inserted — both ball
// families, 2-D and 3-D, 10⁴ centres out to ±10⁷ and radii in [10⁻³, 10³].
// Every entry of the loaded tree is centred, the leaves a query reads give
// each the inserted pdf's MBR, and CheckRecords finds every centre its
// record's.
func TestCentreEntryMBRExact(t *testing.T) {
	const n = 10000
	for _, dim := range []int{2, 3} {
		rng := rand.New(rand.NewSource(int64(50 + dim)))
		radii := make([]float64, 20)
		for i := range radii {
			radii[i] = math.Pow(10, -3+6*rng.Float64())
		}
		radii[0], radii[1] = 1e-3, 1e3
		objs := make([]Object, n)
		for i := range objs {
			c := make(geom.Point, dim)
			for k := range c {
				c[k] = math.Copysign(math.Pow(10, -3+10*rng.Float64()), rng.Float64()-0.5)
			}
			if i < 4 {
				c[0] = []float64{1e7, -1e7, math.Nextafter(1e7, 0), 0}[i]
			}
			r := radii[rng.Intn(len(radii))]
			var p updf.PDF = updf.NewUniformBall(c, r)
			if i%2 == 1 {
				p = updf.NewConGauBall(c, r, r/2)
			}
			objs[i] = Object{ID: int64(i), PDF: p}
		}
		tree := bulkTree(t, Options{Dim: dim}, objs)
		if err := tree.Commit(); err != nil {
			t.Fatal(err)
		}

		dst := geom.Rect{Lo: make(geom.Point, dim), Hi: make(geom.Point, dim)}
		for _, o := range objs {
			sh := tree.shapes[tree.shapeRefs[o.PDF.ShapeKey()]-1]
			want := o.PDF.MBR()
			sh.fit.Recentrer().MBRAt(o.PDF.Center(), dst)
			if !sameRectBits(dst, want) || !sameRectBits(sh.fit.Recentrer().Recentred(o.PDF.Center()).MBR(), want) {
				t.Fatalf("%d-D object %d (%s): MBRAt %v, recentred %v, inserted %v",
					dim, o.ID, o.PDF.ShapeKey(), dst, sh.fit.Recentrer().Recentred(o.PDF.Center()).MBR(), want)
			}
		}

		seen := 0
		for page, p := range treeLeaves(t, tree) {
			for i := 0; i < p.count; i++ {
				o := objs[p.id(i)]
				if !p.centred(i) {
					t.Fatalf("%d-D leaf %d entry %d (object %d): form %#x, want a centre entry", dim, page, i, o.ID, p.form(i))
				}
				if mbr, ok := p.leafMBR(i, tree.shapes, dst); !ok || !sameRectBits(mbr, o.PDF.MBR()) {
					t.Fatalf("%d-D object %d: the leaf gives %v (%v), the pdf %v", dim, o.ID, mbr, ok, o.PDF.MBR())
				}
				seen++
			}
		}
		if seen != n {
			t.Fatalf("%d-D: %d leaf entries, want %d", dim, seen, n)
		}
		snap := tree.Snapshot()
		err := snap.CheckRecords()
		snap.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
}

// sameRectBits reports whether a and b hold the same float64 bits.
func sameRectBits(a, b geom.Rect) bool { return sameBits(a.Lo, b.Lo) && sameBits(a.Hi, b.Hi) }

// TestOpenUTR6File opens a file written before centre leaf entries
// (testdata/utr6.idx: metadata magic UTR6, built by `utreectl build
// -dataset LB -scale 0.01` — 530 uniform circles of one shape, every leaf
// entry compact, 48 B). It passes CheckInvariants, CheckRecords and Scrub
// and answers every range and k-NN query of testdata/utr6.golden.json
// exactly as the code that wrote it did, but that the radial pair terms of
// the marginal bounds validate four balls it integrated (objects 398 and
// 450, and 158 and 298 since the pair terms read their corner masses off
// the shape's quadrant table: the same IDs, Prob −1 for an appearance
// probability). A committed
// batch of two inserts stamps it UTR7 and rewrites only the leaves the
// inserts touched, in which the file's entries stay compact — their page
// holds no exact centre — and the new objects' entries are centred; once
// they are deleted again, in a second batch, it answers every query as
// before.
func TestOpenUTR6File(t *testing.T) {
	var golden utr4Golden
	if b, err := os.ReadFile("testdata/utr6.golden.json"); err != nil || json.Unmarshal(b, &golden) != nil {
		t.Fatalf("reading the golden answers: %v", err)
	}
	path := filepath.Join(t.TempDir(), "utr6.idx")
	copyFile(t, "testdata/utr6.idx", path)
	store, err := pagefile.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	meta := pagefile.PageID(golden.Meta)
	magic := func() uint32 {
		t.Helper()
		buf := make([]byte, pagefile.PageSize)
		if err := store.Read(meta, buf); err != nil {
			t.Fatal(err)
		}
		return binary.LittleEndian.Uint32(buf)
	}
	if m := magic(); m != metaMagicV6 {
		t.Fatalf("fixture magic %#x, want UTR6", m)
	}
	tree, _, err := Open(store, meta, Options{MCSamples: utr4Samples})
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string) {
		t.Helper()
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		snap := tree.Snapshot()
		defer snap.Close()
		if err := snap.CheckRecords(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if verified, corrupt := tree.Scrub(); verified == 0 || len(corrupt) != 0 {
			t.Fatalf("%s: Scrub verified %d pages, corrupt %v", what, verified, corrupt)
		}
	}
	check("fixture")
	if f := leafForms(t, tree); f.unkeyed != 0 || f.centre != 0 || f.compact != f.keyed || f.keyed != tree.Len() {
		t.Fatalf("fixture leaves: %+v, want every entry keyed and compact", f)
	}
	checkGolden(t, tree, golden, false)

	before := treeLeaves(t, tree)
	pages := slices.Sorted(maps.Keys(before))
	var added []Object
	for _, page := range pages[:2] {
		// A ball of the shape of the leaf's first entry, where that entry
		// is, so the insert lands in that leaf.
		p := before[page]
		mbr, _ := p.leafMBR(0, tree.shapes, geom.Rect{})
		_, ref := p.addr(0)
		ctr := geom.Point{(mbr.Lo[0] + mbr.Hi[0]) / 2, (mbr.Lo[1] + mbr.Hi[1]) / 2}
		added = append(added, Object{ID: int64(1000 + page), PDF: tree.shapes[ref-1].fit.Recentrer().Recentred(ctr)})
	}
	for _, o := range added {
		if err := tree.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	if m := magic(); m != metaMagic {
		t.Fatalf("magic after a commit %#x, want UTR7", m)
	}
	check("after the inserts")
	if f := leafForms(t, tree); f.centre != len(added) || f.compact != f.keyed-len(added) {
		t.Fatalf("after the inserts: %+v, want the file's entries compact and the %d new ones centred", f, len(added))
	}
	after := treeLeaves(t, tree)
	rewritten := 0
	for page, p := range after {
		if before[page] != nil {
			continue // untouched: the same page
		}
		rewritten++
		for i := 0; i < p.count; i++ {
			if isNew := p.id(i) >= 1000; p.centred(i) != isNew || (p.form(i) == compactEntry) == isNew {
				t.Fatalf("rewritten leaf %d entry %d (object %d): form %#x", page, i, p.id(i), p.form(i))
			}
		}
	}
	if rewritten == 0 || rewritten > len(added) || len(after) != len(before) {
		t.Fatalf("%d of %d leaves rewritten (%d before the inserts), want the ones the inserts touched",
			rewritten, len(after), len(before))
	}
	for _, o := range added {
		if err := tree.Delete(o.ID); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	check("after the deletes")
	checkGolden(t, tree, golden, true)
}

// TestOpenUTR7File opens a file written before dense data pages
// (testdata/utr7.idx: metadata magic UTR7, a 2-D U-tree of 288 live objects
// of every family — balls in centre entries with keyed records, rectangles
// and polygons compact, histograms and mixtures full — with ids from
// −40·65537 to 259·65537, 260 of 300 bulk-loaded, 40 inserted and 12
// deleted, every data page a legacy one). It passes CheckInvariants,
// CheckRecords and Scrub and answers every range and k-NN query of
// testdata/utr7.golden.json exactly as the code that wrote it did. A
// committed batch deletes the objects those answers refined and inserts
// them again with a ball far from every query: their records go, in
// order, to slots of one fresh dense page, the append page from then on,
// and the commit stamps the file UTR8. Reopened, it answers every query
// as before (in any order: the entries moved).
func TestOpenUTR7File(t *testing.T) {
	var golden utr4Golden
	if b, err := os.ReadFile("testdata/utr7.golden.json"); err != nil || json.Unmarshal(b, &golden) != nil {
		t.Fatalf("reading the golden answers: %v", err)
	}
	path := filepath.Join(t.TempDir(), "utr7.idx")
	copyFile(t, "testdata/utr7.idx", path)
	meta := pagefile.PageID(golden.Meta)
	open := func() (*Tree, *pagefile.FileStore) {
		t.Helper()
		store, err := pagefile.OpenFileStore(path)
		if err != nil {
			t.Fatal(err)
		}
		tree, reach, err := Open(store, meta, Options{MCSamples: utr4Samples})
		if err != nil {
			t.Fatal(err)
		}
		store.Retain(reach)
		if err := tree.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		snap := tree.Snapshot()
		defer snap.Close()
		if err := snap.CheckRecords(); err != nil {
			t.Fatal(err)
		}
		if verified, corrupt := tree.Scrub(); verified == 0 || len(corrupt) != 0 {
			t.Fatalf("Scrub verified %d pages, corrupt %v", verified, corrupt)
		}
		return tree, store
	}
	magic := func(store pagefile.Store) uint32 {
		t.Helper()
		return binary.LittleEndian.Uint32(storedPage(t, store, meta))
	}
	tree, store := open()
	if m := magic(store); m != metaMagicV7 {
		t.Fatalf("fixture magic %#x, want UTR7", m)
	}
	old := map[pagefile.PageID]bool{} // the file's data pages
	for _, a := range tree.dir.all() {
		old[a.Page] = true
	}
	for page := range old {
		if _, legacy := pageRecords(storedPage(t, store, page)); !legacy {
			t.Fatalf("fixture data page %d is not a legacy page", page)
		}
	}
	if f := leafForms(t, tree); f.centre == 0 || f.compact == 0 || f.unkeyed == 0 || tree.Len() != 288 {
		t.Fatalf("fixture: %d objects, leaves %+v; want centre, compact and full entries", tree.Len(), f)
	}
	checkGolden(t, tree, golden, false)

	// The objects the answers refined, as their legacy records hold them,
	// and a ball far from every query with an id of ten varint bytes.
	var again []Object
	for _, g := range golden.Ranges {
		for _, r := range g.Results {
			if r.Prob == -1 {
				continue
			}
			addr, _ := tree.RecordAddr(r.ID)
			rec, legacy, err := tree.readRecord(addr)
			if err != nil || !legacy {
				t.Fatalf("object %d's record: legacy %v, %v", r.ID, legacy, err)
			}
			o, err := decodeObject(rec, legacy, tree.shapes)
			if err != nil || o.ID != r.ID {
				t.Fatalf("object %d's record decodes as %d (%v)", r.ID, o.ID, err)
			}
			again = append(again, o)
		}
	}
	if len(again) == 0 {
		t.Fatal("fixture: no refined answer")
	}
	for _, o := range again {
		if err := tree.Delete(o.ID); err != nil {
			t.Fatal(err)
		}
	}
	again = append(again, Object{ID: math.MinInt64, PDF: updf.NewUniformBall(geom.Point{1e6, 1e6}, 25)})
	for _, o := range again {
		if err := tree.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	if m := magic(store); m != metaMagic {
		t.Fatalf("magic after a commit %#x, want UTR8", m)
	}
	for i, o := range again {
		if a, _ := tree.RecordAddr(o.ID); old[a.Page] || a.Page != tree.appendPage || a.Slot != uint16(i) {
			t.Fatalf("object %d's record at %+v, want slot %d of a fresh append page (%d)", o.ID, a, i, tree.appendPage)
		}
	}
	if recs, legacy := pageRecords(storedPage(t, store, tree.appendPage)); legacy || len(recs) != len(again) {
		t.Fatalf("the append page holds %d records (legacy %v), want the batch's %d on a dense page", len(recs), legacy, len(again))
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	tree, store = open()
	defer store.Close()
	if m := magic(store); m != metaMagic {
		t.Fatalf("magic after a reopen %#x, want UTR8", m)
	}
	checkGolden(t, tree, golden, true)
}
