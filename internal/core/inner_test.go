package core

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/pagefile"
	"repro/internal/updf"
)

// encodeWideInner writes U-tree intermediate node n over buf as a file
// before UTR6 holds it: no header flag, and each entry child, pad, MBR⊥
// and MBR⊤ as float64.
func encodeWideInner(n *node, buf []byte) {
	clear(buf)
	buf[0] = byte(n.level)
	binary.LittleEndian.PutUint16(buf[2:], uint16(len(n.entries)))
	off := nodeHeader
	for _, e := range n.entries {
		binary.LittleEndian.PutUint32(buf[off:], uint32(e.child))
		at := off + 8
		for _, b := range e.boxes {
			at = putRect(buf, at, b)
		}
		off = at
	}
}

// checkExact holds a range answer to Equation 2 over every object: a
// refined probability is PDF.ExactProb to the bit, a validated object's
// reaches the threshold, and no object whose ExactProb does is missing —
// so no rounded box pruned a subtree that holds an answer.
func checkExact(t *testing.T, what string, objs []Object, q Query, got []Result) {
	t.Helper()
	in := map[int64]Result{}
	for _, r := range got {
		in[r.ID] = r
	}
	for _, o := range objs {
		r, ok := in[o.ID]
		if !o.PDF.MBR().Intersects(q.Rect) {
			if ok {
				t.Fatalf("%s: object %d answered, its region misses the query", what, o.ID)
			}
			continue
		}
		p := o.PDF.ExactProb(q.Rect)
		switch {
		case ok && r.Prob >= 0 && r.Prob != p:
			t.Fatalf("%s: object %d refined to %v, ExactProb %v", what, o.ID, r.Prob, p)
		case ok && r.Prob < 0 && p < q.Prob-1e-9:
			t.Fatalf("%s: object %d validated, ExactProb %v < %v", what, o.ID, p, q.Prob)
		case !ok && p >= q.Prob+1e-9:
			t.Fatalf("%s: object %d missing, ExactProb %v ≥ %v", what, o.ID, p, q.Prob)
		}
	}
}

// scaledObjects draws n objects of four families in dim dimensions with
// centres at base + [0, span) and extents about radius.
func scaledObjects(n, dim int, base, span, radius float64, rng *rand.Rand) []Object {
	objs := make([]Object, n)
	for i := range objs {
		c := make(geom.Point, dim)
		box := geom.Rect{Lo: make(geom.Point, dim), Hi: make(geom.Point, dim)}
		for k := range c {
			c[k] = base + rng.Float64()*span
			box.Lo[k], box.Hi[k] = c[k]-radius, c[k]+radius*(0.5+rng.Float64())
		}
		var p updf.PDF
		switch i % 4 {
		case 0:
			p = updf.NewUniformBall(c, radius)
		case 1:
			p = updf.NewConGauBall(c, radius, radius/2)
		case 2:
			p = updf.NewUniformRect(box)
		default:
			sigma := make([]float64, dim)
			for k := range sigma {
				sigma[k] = radius / 3
			}
			p = updf.NewGaussRect(box, box.Center(), sigma)
		}
		objs[i] = Object{ID: int64(i), PDF: p}
	}
	return objs
}

// TestInnerBoxesRoundOutward: intermediate boxes are float32, rounded
// outward, so at coordinates where a float32 ulp is as large as the objects
// themselves (1 at 1e7, against extents of 3) the boxes grow by up to an
// ulp a face — and must still contain their children (CheckInvariants,
// which also holds the recorded root box to the one read back) and prune
// no answer: every range answer equals the ExactProb oracle's, on trees
// from 1e-3 to 1e7, inserted (splits, forced reinsertion, refreshPath) and
// bulk-loaded, with a quarter deleted (condense).
func TestInnerBoxesRoundOutward(t *testing.T) {
	for _, c := range []struct {
		name                 string
		dim                  int
		base, span, radius   float64
		logUniform, bulkLoad bool
	}{
		{name: "1e-3", dim: 2, base: 1e-3, span: 1e-3, radius: 1e-5},
		{name: "1e3", dim: 2, base: 0, span: 2000, radius: 25, bulkLoad: true},
		{name: "1e7", dim: 2, base: 1e7, span: 3e3, radius: 3},
		{name: "1e7 bulk", dim: 2, base: 1e7, span: 3e3, radius: 3, bulkLoad: true},
		{name: "1e7 3-D", dim: 3, base: 1e7, span: 800, radius: 3},
		{name: "1e-3 to 1e7", dim: 2, logUniform: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(71))
			var objs []Object
			if c.logUniform {
				// Each object at its own magnitude: centres 10^[-3, 7), extents
				// a hundredth of the centre, so every scale meets in one tree.
				for i := range 1600 {
					ctr := math.Pow(10, -3+10*rng.Float64())
					o := scaledObjects(1, c.dim, ctr, ctr*0.01, ctr*0.01+1e-6, rng)[0]
					o.ID = int64(i)
					objs = append(objs, o)
				}
			} else {
				objs = scaledObjects(1600, c.dim, c.base, c.span, c.radius, rng)
			}
			tree, err := New(Options{Dim: c.dim})
			if err != nil {
				t.Fatal(err)
			}
			if c.bulkLoad {
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
			for _, o := range objs[:400] {
				if err := tree.Delete(o.ID); err != nil {
					t.Fatal(err)
				}
			}
			objs = objs[400:]
			if err := tree.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := tree.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if tree.Height() < 2 {
				t.Fatalf("fixture: height %d, want intermediate nodes", tree.Height())
			}
			for range 60 {
				// A query around an object, at the object's own scale, so
				// that boxes rounded by an ulp are what decides a visit.
				o := objs[rng.Intn(len(objs))].PDF.MBR()
				rect := geom.Rect{Lo: make(geom.Point, c.dim), Hi: make(geom.Point, c.dim)}
				for k := range rect.Lo {
					w := o.Side(k) * (0.5 + 4*rng.Float64())
					rect.Lo[k] = o.Lo[k] + o.Side(k)*(rng.Float64()-0.5)
					rect.Hi[k] = rect.Lo[k] + w
				}
				query := Query{Rect: rect, Prob: 0.05 + 0.9*rng.Float64()}
				got, _, err := rangeQuery(tree, query)
				if err != nil {
					t.Fatal(err)
				}
				checkExact(t, c.name, objs, query, got)
			}
		})
	}
}

// widenInner rewrites every committed U-tree intermediate page of tree that
// fits the layout before UTR6 as that layout holds it (encodeWideInner), in
// place behind the copy-on-write check, and stamps the metadata page with
// magic: the file an older writer would have left, but for the nodes too
// full for the older layout, which stay float32 as in a UTR6 file whose
// migration is under way. It returns how many pages it rewrote and how many
// it left.
func widenInner(t *testing.T, tree *Tree, magic uint32) (wide, half int) {
	t.Helper()
	buf := make([]byte, pagefile.PageSize)
	if err := tree.walk(tree.rootPage, tree.rootLevel, func(n *node) error {
		if n.leaf() {
			return nil
		}
		if len(n.entries) > pageBytes/wideInnerSize(tree.dim) {
			half++
			return nil
		}
		wide++
		encodeWideInner(n, buf)
		return tree.store.Write(n.page, buf)
	}); err != nil {
		t.Fatal(err)
	}
	if err := tree.store.Read(tree.MetaPage(), buf); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(buf, magic)
	if err := tree.store.Write(tree.MetaPage(), buf); err != nil {
		t.Fatal(err)
	}
	return wide, half
}

// copyStore copies every page of src, allocated or free, into a new store
// with the same page numbers.
func copyStore(t *testing.T, src *pagefile.MemStore) *pagefile.MemStore {
	t.Helper()
	dst := pagefile.NewMemStore()
	buf := make([]byte, pagefile.PageSize)
	for id := pagefile.PageID(0); ; id++ {
		rerr := src.Read(id, buf)
		if errors.Is(rerr, pagefile.ErrPageOutOfRange) {
			return dst
		}
		if got, err := dst.Alloc(); err != nil || got != id {
			t.Fatalf("copying the store: page %d came out as %d, err %v", id, got, err)
		}
		if rerr != nil {
			continue // a freed page: keep the numbering
		}
		if err := dst.Write(id, buf); err != nil {
			t.Fatal(err)
		}
	}
}

// innerLayouts counts the committed tree's intermediate pages by layout,
// reading each page's header flags off the store.
func innerLayouts(t *testing.T, tree *Tree) (wide, half int) {
	t.Helper()
	buf := make([]byte, pagefile.PageSize)
	if err := tree.walk(tree.rootPage, tree.rootLevel, func(n *node) error {
		if n.leaf() {
			return nil
		}
		if err := tree.store.Read(n.page, buf); err != nil {
			return err
		}
		if buf[1] == halfInner {
			half++
		} else {
			wide++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return wide, half
}

// answers runs the range and k-NN probes on tree, each range answer sorted
// by ID (its order is the traversal's).
func answers(t *testing.T, tree *Tree, ranges []Query, points []geom.Point) (r [][]Result, nn [][]NNResult) {
	t.Helper()
	for _, q := range ranges {
		got, _, err := rangeQuery(tree, q)
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(got, func(a, b int) bool { return got[a].ID < got[b].ID })
		r = append(r, got)
	}
	for _, p := range points {
		got, _, err := nearestNeighbors(tree, p, 10)
		if err != nil {
			t.Fatal(err)
		}
		nn = append(nn, got)
	}
	return r, nn
}

// TestOpenWideInnerFiles: a file written before UTR6 — its intermediate
// pages holding float64 boxes without the header flag, under the magic of
// each older version — opens, passes CheckInvariants and answers every
// range and k-NN probe exactly as the tree it was written from; a mutation
// rewrites the intermediate nodes it touches in the float32 layout and
// leaves the rest as they were; the commit stamps the file UTR6; and the
// answers stay the same. The objects are all unkeyed (histograms and
// mixtures), so the file is a valid UTR2 to UTR5 file but for the layout.
func TestOpenWideInnerFiles(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	objs := mixedObjects(3600, 2, 3000, 0, true, rng)
	ranges := make([]Query, 40)
	for k := range ranges {
		ranges[k] = Query{Rect: randomQueryRect(rng, 3000), Prob: 0.05 + 0.9*rng.Float64()}
	}
	points := make([]geom.Point, 6)
	for k := range points {
		points[k] = geom.Point{rng.Float64() * 3000, rng.Float64() * 3000}
	}
	base := pagefile.NewMemStore()
	tree, err := New(Options{Dim: 2, Store: base, Persist: true, MCSamples: 500})
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
	if tree.Height() != 3 || len(tree.shapes) != 0 {
		t.Fatalf("fixture: height %d, %d shapes; want 3 and none", tree.Height(), len(tree.shapes))
	}
	wantR, wantNN := answers(t, tree, ranges, points)
	wide, half := widenInner(t, tree, metaMagicV5)
	if wide < 2 {
		t.Fatalf("fixture: %d intermediate pages fit the older layout (%d do not), want the root and a child", wide, half)
	}
	for _, magic := range []uint32{metaMagicV2, metaMagicV3, metaMagicV4, metaMagicV5} {
		store := copyStore(t, base)
		meta := make([]byte, pagefile.PageSize)
		if err := store.Read(tree.MetaPage(), meta); err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(meta, magic)
		if err := store.Write(tree.MetaPage(), meta); err != nil {
			t.Fatal(err)
		}

		old, _, err := Open(store, tree.MetaPage(), Options{MCSamples: 500})
		if err != nil {
			t.Fatalf("magic %#x: %v", magic, err)
		}
		if w, h := innerLayouts(t, old); w != wide || h != half {
			t.Fatalf("magic %#x: opened with %d float64 and %d float32 intermediate pages, want %d and %d", magic, w, h, wide, half)
		}
		if err := old.CheckInvariants(); err != nil {
			t.Fatalf("magic %#x: %v", magic, err)
		}
		if gotR, gotNN := answers(t, old, ranges, points); !reflect.DeepEqual(gotR, wantR) || !reflect.DeepEqual(gotNN, wantNN) {
			t.Fatalf("magic %#x: the older file answers otherwise", magic)
		}

		// One object in and out again: the nodes on its path are rewritten,
		// the object set is the same.
		extra := Object{ID: 99999, PDF: updf.NewUniformBall(geom.Point{1500, 1500}, 20)}
		if err := old.Insert(extra); err != nil {
			t.Fatal(err)
		}
		if err := old.Delete(extra.ID); err != nil {
			t.Fatal(err)
		}
		if err := old.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := store.Read(tree.MetaPage(), meta); err != nil {
			t.Fatal(err)
		}
		if m := binary.LittleEndian.Uint32(meta); m != metaMagic {
			t.Fatalf("magic %#x: after a commit %#x, want UTR6", magic, m)
		}
		// The root is on every path; a child the mutation did not reach
		// keeps its page.
		w, h := innerLayouts(t, old)
		if w+h != wide+half || h <= half || w == 0 || w < wide-2 {
			t.Fatalf("magic %#x: after a mutation %d float64 and %d float32 intermediate pages (before %d and %d): want the root and at most one child rewritten, the rest as they were",
				magic, w, h, wide, half)
		}
		if err := old.CheckInvariants(); err != nil {
			t.Fatalf("magic %#x, migrated: %v", magic, err)
		}
		if gotR, gotNN := answers(t, old, ranges, points); !reflect.DeepEqual(gotR, wantR) || !reflect.DeepEqual(gotNN, wantNN) {
			t.Fatalf("magic %#x: the migrated file answers otherwise", magic)
		}
	}
}

// TestWideFillExemptsOlderInnerNodes: a U-tree intermediate node below the
// root holding fewer entries than today's minimum fill (40 in 2-D) but as
// many as the layout before UTR6 asked (22: 40 % of the 56 float64 entries
// a page held then) is a node such a file can hold, and CheckInvariants
// accepts it; with one entry fewer the node is underfull. The exemption
// depends on the entry count alone, so the node is made here by moving
// entries from one level-1 node into its sibling, both rewritten in place
// with their parent's boxes refreshed.
func TestWideFillExemptsOlderInnerNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	tree, err := New(Options{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.BulkLoad(mixedObjects(4000, 2, 3000, 0, true, rng)); err != nil {
		t.Fatal(err)
	}
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	wide := max1(pageBytes / wideInnerSize(tree.dim) * 2 / 5)
	if tree.Height() != 3 || wide != 22 || tree.minInner != 40*tree.innerEntrySize {
		t.Fatalf("fixture: height %d, older fill %d, minimum fill %d B; want 3, 22 and 40 entries", tree.Height(), wide, tree.minInner)
	}
	root, err := tree.readNode(tree.rootPage, tree.rootLevel)
	if err != nil {
		t.Fatal(err)
	}
	var sib [2]*node
	for i := range sib {
		if sib[i], err = tree.readNode(root.entries[i].child, 1); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(sib[0].entries) + len(sib[1].entries); len(sib[0].entries) <= wide || n-wide+1 > tree.innerCap {
		t.Fatalf("fixture: siblings of %d and %d entries, capacity %d", len(sib[0].entries), len(sib[1].entries), tree.innerCap)
	}
	put := func(n *node) {
		buf := make([]byte, pagefile.PageSize)
		if err := tree.encodeNode(n, buf); err != nil {
			t.Fatal(err)
		}
		if err := tree.store.Write(n.page, buf); err != nil {
			t.Fatal(err)
		}
	}
	// keep leaves the first sibling keep entries, the rest in the second.
	keep := func(keep int) error {
		a, b := sib[0], sib[1]
		b.entries = append(b.entries, a.entries[keep:]...)
		a.entries = a.entries[:keep]
		for i, n := range sib {
			var boxes []geom.Rect
			for _, r := range tree.nodeBoundary(n) {
				boxes = append(boxes, r.Clone())
			}
			root.entries[i].boxes = boxes
			put(n)
		}
		put(root)
		return tree.CheckInvariants()
	}
	if err := keep(wide); err != nil {
		t.Fatalf("a level-1 node of %d entries, the older layout's fill: %v", wide, err)
	}
	if err := keep(wide - 1); err == nil || !strings.Contains(err.Error(), "underfull") {
		t.Fatalf("a level-1 node of %d entries: %v, want it underfull", wide-1, err)
	}
}
