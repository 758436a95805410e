package core

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/pagefile"
	"repro/internal/updf"
)

// utr4Golden is testdata/utr4.golden.json: the metadata page of
// testdata/utr4.idx and the answers the code that wrote the file gave on
// it, before compact leaf entries.
type utr4Golden struct {
	Meta   uint32
	Ranges []struct {
		Lo, Hi  []float64
		Prob    float64
		Results []Result
	}
	NN []struct {
		Q   []float64
		K   int
		Out []NNResult
	}
}

// utr4Samples is the k-NN sample count the golden answers were taken at.
const utr4Samples = 2000

// TestOpenUTR4File opens a file written before compact leaf entries
// (testdata/utr4.idx: metadata magic UTR4, a 2-D U-tree of 160 objects, a
// fifth of them histograms without a shape, 140 bulk-loaded and 20
// inserted, every leaf entry in full). It answers every range and k-NN
// query of testdata/utr4.golden.json exactly as the code that wrote it did,
// passes CheckInvariants, and one Insert plus Commit stamps it UTR7 and
// rewrites the leaf the insert touched compact (its balls' entries
// centred, since an inserted object holds its centre, and the file's
// keyed entries compact, since theirs has no exact one), the other leaves as they
// were, and its intermediate root — float64 boxes, no header flag — in the
// float32 layout. Once the object is deleted again it answers every query
// as before.
func TestOpenUTR4File(t *testing.T) {
	var golden utr4Golden
	if b, err := os.ReadFile("testdata/utr4.golden.json"); err != nil || json.Unmarshal(b, &golden) != nil {
		t.Fatalf("reading the golden answers: %v", err)
	}
	path := filepath.Join(t.TempDir(), "utr4.idx")
	copyFile(t, "testdata/utr4.idx", path)
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
	if m := magic(); m != metaMagicV4 {
		t.Fatalf("fixture magic %#x, want UTR4", m)
	}
	tree, _, err := Open(store, meta, Options{MCSamples: utr4Samples})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	forms := leafForms(t, tree)
	if forms.compact != 0 || forms.keyed == 0 || forms.unkeyed == 0 {
		t.Fatalf("fixture leaves: %+v, want keyed and unkeyed entries, all full", forms)
	}

	if w, h := innerLayouts(t, tree); w != 1 || h != 0 {
		t.Fatalf("fixture: %d float64 and %d float32 intermediate pages, want its root in float64", w, h)
	}
	checkGolden(t, tree, golden, false)

	before := treeLeaves(t, tree)
	o := Object{ID: 1000, PDF: updf.NewUniformBall(geom.Point{500, 500}, 25)}
	if err := tree.Insert(o); err != nil {
		t.Fatal(err)
	}
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	if m := magic(); m != metaMagic {
		t.Fatalf("magic after a commit %#x, want UTR7", m)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if w, h := innerLayouts(t, tree); w != 0 || h != 1 {
		t.Fatalf("after an insert %d float64 and %d float32 intermediate pages, want the root rewritten in float32", w, h)
	}
	after := treeLeaves(t, tree)
	rewritten := 0
	for page, p := range after {
		if before[page] != nil {
			continue // untouched: the same page, still full
		}
		rewritten++
		for i := 0; i < p.count; i++ {
			if _, ref := p.addr(i); (ref != 0) != (p.form(i) != 0) || p.centred(i) != (p.id(i) == o.ID) {
				t.Fatalf("rewritten leaf %d entry %d: shape %d, form %#x", page, i, ref, p.form(i))
			}
		}
	}
	if rewritten != 1 || len(after) != len(before) {
		t.Fatalf("%d of %d leaves rewritten (%d before the insert), want the one the insert touched",
			rewritten, len(after), len(before))
	}
	if err := tree.Delete(o.ID); err != nil {
		t.Fatal(err)
	}
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, tree, golden, true)
}

// checkGolden runs every query of the golden file on tree's committed epoch
// and requires the answers the code that wrote utr4.idx gave — in its order
// (the traversal's), or with anyOrder in any, for a tree whose nodes have
// moved since.
func checkGolden(t *testing.T, tree *Tree, golden utr4Golden, anyOrder bool) {
	t.Helper()
	snap := tree.Snapshot()
	defer snap.Close()
	byID := func(rs []Result) []Result {
		if anyOrder {
			rs = slices.Clone(rs)
			sort.Slice(rs, func(a, b int) bool { return rs[a].ID < rs[b].ID })
		}
		return rs
	}
	for k, g := range golden.Ranges {
		got, _, err := snap.RangeQuery(context.Background(), Query{Rect: geom.Rect{Lo: g.Lo, Hi: g.Hi}, Prob: g.Prob}, QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(byID(got), byID(g.Results)) && !(len(got) == 0 && len(g.Results) == 0) {
			t.Fatalf("range query %d: %v, the writer's answer %v", k, got, g.Results)
		}
	}
	for k, g := range golden.NN {
		got, _, err := snap.NearestNeighbors(context.Background(), g.Q, g.K, QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, g.Out) {
			t.Fatalf("k-NN query %d: %v, the writer's answer %v", k, got, g.Out)
		}
	}
}

// copyFile copies src to dst.
func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	in, err := os.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(out, in); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
}

// treeLeaves decodes every leaf of the committed tree, keyed by page.
func treeLeaves(t *testing.T, tree *Tree) map[pagefile.PageID]*packedNode {
	t.Helper()
	leaves := map[pagefile.PageID]*packedNode{}
	if err := tree.walk(tree.rootPage, tree.rootLevel, func(n *node) error {
		if n.leaf() {
			p, err := tree.readCommitted(n.page, 0)
			leaves[n.page] = p
			return err
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return leaves
}

// forms counts a tree's leaf entries by form, and its leaves holding keyed
// and unkeyed entries.
type forms struct{ keyed, unkeyed, compact, centre, mixedLeaves int }

func leafForms(t *testing.T, tree *Tree) (f forms) {
	t.Helper()
	for _, p := range treeLeaves(t, tree) {
		var keyed, unkeyed int
		for i := 0; i < p.count; i++ {
			if _, ref := p.addr(i); ref != 0 {
				keyed++
			} else {
				unkeyed++
			}
			switch {
			case p.form(i) == compactEntry:
				f.compact++
			case p.centred(i):
				f.centre++
			}
		}
		f.keyed, f.unkeyed = f.keyed+keyed, f.unkeyed+unkeyed
		if keyed > 0 && unkeyed > 0 {
			f.mixedLeaves++
		}
	}
	return f
}

// mixedObjects draws n objects in [0, span]^dim, ids from id0: two in three
// keyed (uniform and Con-Gau balls, uniform and Gaussian rectangles, of a
// few shapes), the third unkeyed (histograms and mixtures) — or all of
// them unkeyed.
func mixedObjects(n, dim int, span float64, id0 int64, unkeyedOnly bool, rng *rand.Rand) []Object {
	objs := make([]Object, n)
	for i := range objs {
		c := make(geom.Point, dim)
		for k := range c {
			c[k] = rng.Float64() * span
		}
		box := geom.Rect{Lo: make(geom.Point, dim), Hi: make(geom.Point, dim)}
		bins := make([]int, dim)
		for k := range c {
			box.Lo[k], box.Hi[k], bins[k] = c[k]-15, c[k]+10+float64(k), 2
		}
		var p updf.PDF
		switch kind := i % 6; {
		case unkeyedOnly && kind%2 == 0 || !unkeyedOnly && kind == 2:
			w := make([]float64, 1<<dim)
			for k := range w {
				w[k] = 1 + float64(rng.Intn(4))
			}
			p = updf.NewHistogramRect(box, bins, w)
		case unkeyedOnly || kind == 5:
			p = updf.NewMixture([]updf.PDF{updf.NewUniformBall(c, 12), updf.NewUniformRect(box)}, []float64{1, 2})
		case kind == 0:
			p = updf.NewUniformBall(c, []float64{20, 25}[rng.Intn(2)])
		case kind == 1:
			p = updf.NewConGauBall(c, 25, 12.5)
		case kind == 3:
			p = updf.NewUniformRect(box)
		default:
			sigma := make([]float64, dim)
			for k := range sigma {
				sigma[k] = 8 + float64(k)
			}
			p = updf.NewGaussRect(box, c, sigma)
		}
		objs[i] = Object{ID: id0 + int64(i), PDF: p}
	}
	return objs
}

// TestMixedTrees builds U-trees of keyed (centre and compact) and unkeyed (full) leaf
// entries, 2-D and 3-D, by BulkLoad and by Insert, and churns them: deletes,
// then write batches of inserts and deletes under one commit each, then a
// batch rolled back. After every step the invariants hold — byte capacity
// and byte fill among them — some leaf holds both forms, range answers equal
// Scan's, which filters on the same faces (the IDs; and the probability
// wherever both computed one), and k-NN lists equal a brute-force ranking
// by the same expected-distance evaluator.
func TestMixedTrees(t *testing.T) {
	n := 1500
	if testing.Short() {
		n = 700
	}
	const span, samples = 1200.0, 200
	for _, dim := range []int{2, 3} {
		for _, build := range []string{"BulkLoad", "Insert"} {
			t.Run(fmt.Sprintf("%dD-%s", dim, build), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(44 + dim)))
				objs := mixedObjects(n, dim, span, 0, false, rng)
				tree, err := New(Options{Dim: dim, MCSamples: samples})
				if err != nil {
					t.Fatal(err)
				}
				if build == "BulkLoad" {
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
				live := map[int64]Object{}
				for _, o := range objs {
					live[o.ID] = o
				}
				step := func(name string) {
					t.Helper()
					if err := tree.Commit(); err != nil {
						t.Fatal(err)
					}
					checkMixed(t, name, tree, live, span, samples, rng)
				}
				step("built")

				ids := make([]int64, 0, len(live))
				for id := range live {
					ids = append(ids, id)
				}
				sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
				rng.Shuffle(len(ids), func(a, b int) { ids[a], ids[b] = ids[b], ids[a] })
				del := func(id int64) {
					t.Helper()
					if err := tree.Delete(id); err != nil {
						t.Fatalf("delete %d: %v", id, err)
					}
					delete(live, id)
				}
				for _, id := range ids[:len(ids)/4] {
					del(id)
				}
				step("deleted a quarter")

				next := int64(n)
				for b := 0; b < 3; b++ {
					for _, o := range mixedObjects(60, dim, span, next, false, rng) {
						if err := tree.Insert(o); err != nil {
							t.Fatal(err)
						}
						live[o.ID] = o
					}
					next += 60
					for _, id := range ids[len(ids)/4+60*b : len(ids)/4+60*(b+1)] {
						del(id)
					}
					step(fmt.Sprintf("batch %d", b))
				}

				for _, o := range mixedObjects(60, dim, span, next, false, rng) {
					if err := tree.Insert(o); err != nil {
						t.Fatal(err)
					}
				}
				for _, id := range ids[len(ids)/4+180 : len(ids)/4+240] {
					if err := tree.Delete(id); err != nil {
						t.Fatal(err)
					}
				}
				if err := tree.Rollback(); err != nil {
					t.Fatal(err)
				}
				step("batch rolled back")
			})
		}
	}
}

// checkMixed is TestMixedTrees' check of one step.
func checkMixed(t *testing.T, name string, tree *Tree, live map[int64]Object, span float64, samples int, rng *rand.Rand) {
	t.Helper()
	if err := tree.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if tree.Len() != len(live) {
		t.Fatalf("%s: Len %d, want %d", name, tree.Len(), len(live))
	}
	if f := leafForms(t, tree); f.mixedLeaves == 0 || f.compact == 0 || f.centre == 0 || f.compact+f.centre != f.keyed || f.keyed+f.unkeyed != len(live) {
		t.Fatalf("%s: leaf forms %+v; want every keyed entry centred or compact, both forms used, and some leaf of keyed and unkeyed entries", name, f)
	}
	// CheckInvariants lets a leaf from a UTR4 file meet the fill by count;
	// a tree this code built meets it in bytes.
	if err := tree.walk(tree.rootPage, tree.rootLevel, func(n *node) error {
		minFill := tree.minLeaf
		if !n.leaf() {
			minFill = tree.minInner
		}
		if b := tree.entryBytes(n.entries, n.leaf()); n.page != tree.rootPage && b < minFill {
			return fmt.Errorf("node %d: %d entries in %d < %d bytes", n.page, len(n.entries), b, minFill)
		}
		return nil
	}); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	objs := make([]Object, 0, len(live))
	for _, o := range live {
		objs = append(objs, o)
	}
	sort.Slice(objs, func(a, b int) bool { return objs[a].ID < objs[b].ID })
	scan := NewScan(objs, tree.cat.Size())
	dim := tree.dim
	for q := 0; q < 12; q++ {
		lo, hi := make(geom.Point, dim), make(geom.Point, dim)
		for k := range lo {
			lo[k] = rng.Float64() * span
			hi[k] = lo[k] + 20 + rng.Float64()*span/4
		}
		query := Query{Rect: geom.Rect{Lo: lo, Hi: hi}, Prob: 0.05 + 0.9*rng.Float64()}
		got, _, err := rangeQuery(tree, query)
		if err != nil {
			t.Fatal(err)
		}
		want, _, _ := scan.RangeQuery(query)
		if !sameIDs(resultIDs(got), resultIDs(want)) {
			t.Fatalf("%s: range query %d: %d answers, Scan's %d", name, q, len(got), len(want))
		}
		prob := map[int64]float64{}
		for _, r := range want {
			prob[r.ID] = r.Prob
		}
		for _, r := range got {
			if w := prob[r.ID]; r.Prob >= 0 && w >= 0 && r.Prob != w {
				t.Fatalf("%s: range query %d, object %d: probability %v, Scan's %v", name, q, r.ID, r.Prob, w)
			}
		}
	}
	for q := 0; q < 3; q++ {
		pt := make(geom.Point, dim)
		for k := range pt {
			pt[k] = rng.Float64() * span
		}
		got, _, err := nearestNeighbors(tree, pt, 8)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteNN(objs, pt, 8, samples); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: k-NN %d:\n got  %v\n want %v", name, q, got, want)
		}
	}
}

// TestUnkeyedTreeUnchanged: a U-tree with no keyed object has the shape and
// bytes it had before compact entries — node count, leaf count, every leaf
// page and every data record, pinned as hashes, the numbers of the code
// before (2-D and 3-D, bulk-loaded and inserted, then a quarter deleted).
// Its intermediate pages hold float32 boxes since UTR6, and their hash is
// that layout's. A bulk-loaded tree's hashes are those of the boustrophedon
// tile order (strTile), which lays the same leaves out in another order;
// its page and leaf counts are what they were, and so is the room STR
// leaves, one full entry: the room of a leaf of full entries. Its hashes
// are those of dense data pages (UTR8) since: the records' ids are varints
// and the leaves' addresses and the inner entries' children moved; with
// addresses and children masked the leaf and inner hashes are the UTR7
// code's, and so is the record hash with every id widened to a u64.
func TestUnkeyedTreeUnchanged(t *testing.T) {
	for _, c := range []struct {
		dim                          int
		build                        string
		pages, leaves                int
		leafHash, recHash, innerHash uint64
	}{
		{2, "BulkLoad", 21, 20, 0xfde42e794af646ce, 0x7c297285b9bce57c, 0x8f0a28e0b583782e},
		{2, "Insert", 22, 21, 0xfec51804c83fa81e, 0x649bb3f587b35650, 0x5f48224740b5a8bc},
		{3, "BulkLoad", 28, 27, 0x184015847f8e92d2, 0x80b75cc72a93d0ed, 0x8f06dc831da39308},
		{3, "Insert", 32, 31, 0x8af5b85cacdcbc41, 0x16b9bf385c12abd, 0x60af87184149f9e8},
	} {
		rng := rand.New(rand.NewSource(int64(7 + c.dim)))
		objs := mixedObjects(600, c.dim, 1000, 0, true, rng)
		tree, err := New(Options{Dim: c.dim})
		if err != nil {
			t.Fatal(err)
		}
		if c.build == "BulkLoad" {
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
		for _, o := range objs[:150] {
			if err := tree.Delete(o.ID); err != nil {
				t.Fatal(err)
			}
		}
		if err := tree.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		leafHash, innerHash, recHash := fnv.New64a(), fnv.New64a(), fnv.New64a()
		pages, leaves := 0, 0
		buf := make([]byte, pagefile.PageSize)
		if err := tree.walk(tree.rootPage, tree.rootLevel, func(n *node) error {
			pages++
			h := innerHash
			if n.leaf() {
				leaves++
				h = leafHash
				for i := range n.entries {
					rec, err := bytesOf(tree.readRecord(n.entries[i].addr))
					if err != nil {
						return err
					}
					recHash.Write(rec)
				}
			}
			if err := tree.encodeNode(n, buf); err != nil {
				return err
			}
			h.Write(buf[:nodeHeader+tree.entryBytes(n.entries, n.leaf())])
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if pages != c.pages || leaves != c.leaves || leafHash.Sum64() != c.leafHash || recHash.Sum64() != c.recHash || innerHash.Sum64() != c.innerHash {
			t.Errorf("%d-D %s: %d pages, %d leaves, leaf hash %#x, record hash %#x, inner hash %#x; want %d, %d, %#x, %#x, %#x",
				c.dim, c.build, pages, leaves, leafHash.Sum64(), recHash.Sum64(), innerHash.Sum64(),
				c.pages, c.leaves, c.leafHash, c.recHash, c.innerHash)
		}
	}
}
