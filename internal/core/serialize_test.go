package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/geom"
	"repro/internal/pagefile"
	"repro/internal/pcr"
	"repro/internal/updf"
)

// randRectIn produces a well-formed rectangle inside [0, span]^d.
func randRectIn(rng *rand.Rand, d int, span float64) geom.Rect {
	lo := make(geom.Point, d)
	hi := make(geom.Point, d)
	for i := 0; i < d; i++ {
		a := rng.Float64() * span
		b := a + rng.Float64()*span/10
		lo[i], hi[i] = a, b
	}
	return geom.Rect{Lo: lo, Hi: hi}
}

// randCFB produces a structurally valid CFB; the float32 conversion leaves
// coefficients with every mantissa pattern, which is what the codec has to
// carry.
func randCFB(rng *rand.Rand, d int) pcr.CFB {
	c := make(pcr.CFB, 4*d)
	for i := 0; i < d; i++ {
		lo := rng.Float64() * 100
		c[i] = float32(lo)
		c[d+i] = float32(rng.NormFloat64() * 10)
		c[2*d+i] = float32(lo + rng.Float64()*50)
		c[3*d+i] = float32(rng.NormFloat64() * 10)
	}
	return c
}

// cfbEqual compares coefficient bits, not values: the page holds the slab
// the filter reads in memory, so −0 and NaN payloads survive too.
func cfbEqual(a, b pcr.CFB) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// decodeEdit decodes a page and expands it into edit form, as readNode does.
func decodeEdit(tree *Tree, id pagefile.PageID, buf []byte) (*node, error) {
	p, err := tree.decodeNode(id, buf)
	if err != nil {
		return nil, err
	}
	return tree.expand(p, tree.shapes), nil
}

// randLeafEntry is a leaf entry with random contents in the given form:
// centreEntry (a reference into the tree's shape table, whose shapes are
// balls, and a centre, the MBR the shape's box there), compactEntry (a
// reference and an MBR, as a UTR6 file holds a ball's entry) or, where form
// is 0 or the tree is a U-PCR tree, unkeyed with random CFBs or PCRs.
func randLeafEntry(rng *rand.Rand, tree *Tree, form uint16) entry {
	e := entry{
		id:   rng.Int63(),
		addr: DataAddr{Page: pagefile.PageID(rng.Uint32()), Slot: uint16(rng.Intn(1 << 16))},
		mbr:  randRectIn(rng, tree.dim, 1000),
	}
	switch {
	case tree.kind == UPCR:
		e.boxes = make([]geom.Rect, tree.cat.Size())
		for j := range e.boxes {
			e.boxes[j] = e.mbr
		}
	case form != 0:
		e.shape = uint16(1 + rng.Intn(len(tree.shapes)))
		e.fit = tree.shapes[e.shape-1].fit
		if form == centreEntry {
			e.ctr = e.mbr.Lo
			e.mbr = tree.shapes[e.shape-1].fit.Recentrer().Recentred(e.ctr).MBR()
		}
	default:
		e.out, e.in = randCFB(rng, tree.dim), randCFB(rng, tree.dim)
	}
	return e
}

// entryForms are the leaf entry forms randLeafEntry makes: full, compact,
// centre.
var entryForms = [3]uint16{0, compactEntry, centreEntry}

// keyedTree is New with a two-shape table in place, so leaf entries can be
// keyed.
func keyedTree(tb testing.TB, opt Options) *Tree {
	tree, err := New(opt)
	if err != nil {
		tb.Fatal(err)
	}
	tree.setShapes(fuzzShapes(opt.Dim))
	return tree
}

// TestNodeSerializationRoundTripUTree encodes and decodes random U-tree
// nodes (leaf and intermediate) and demands bit-exact field recovery: a
// leaf holds keyed (centre or compact) and unkeyed (full) entries in any
// mix, up to what its page holds.
func TestNodeSerializationRoundTripUTree(t *testing.T) {
	for _, dim := range []int{1, 2, 3} {
		tree := keyedTree(t, Options{Dim: dim})
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			// Leaf node.
			leaf := &node{page: 12, level: 0}
			share := [3]float64{rng.Float64(), rng.Float64(), rng.Float64()}
			for n, bytes := 1+rng.Intn(tree.leafCap), 0; len(leaf.entries) < n; {
				k := 0
				for u := rng.Float64() * (share[0] + share[1] + share[2]); k < 2 && u >= share[k]; k++ {
					u -= share[k]
				}
				e := randLeafEntry(rng, tree, entryForms[k])
				if bytes += tree.entrySize(&e, true); bytes > pageBytes {
					break
				}
				leaf.entries = append(leaf.entries, e)
			}
			n := len(leaf.entries)
			// The ends of the address's range.
			leaf.entries[0].addr = DataAddr{Page: 0xFFFFFFFF, Slot: 0xFFFF}
			buf := make([]byte, pagefile.PageSize)
			if err := tree.encodeNode(leaf, buf); err != nil {
				return false
			}
			got, err := decodeEdit(tree, 12, buf)
			if err != nil || got.level != 0 || len(got.entries) != n {
				return false
			}
			for i := range leaf.entries {
				a, b := &leaf.entries[i], &got.entries[i]
				if a.id != b.id || a.addr != b.addr || a.shape != b.shape || a.fit != b.fit || !a.mbr.Equal(b.mbr) ||
					!slices.Equal(a.ctr, b.ctr) || !cfbEqual(a.out, b.out) || !cfbEqual(a.in, b.in) {
					return false
				}
			}
			// Intermediate node.
			inner := &node{page: 13, level: 1 + rng.Intn(4)}
			ni := 1 + rng.Intn(tree.innerCap)
			for i := 0; i < ni; i++ {
				inner.entries = append(inner.entries, entry{
					child: pagefile.PageID(rng.Uint32() % 1_000_000),
					boxes: []geom.Rect{randRectIn(rng, dim, 1000), randRectIn(rng, dim, 1000)},
				})
			}
			buf2 := make([]byte, pagefile.PageSize)
			if err := tree.encodeNode(inner, buf2); err != nil {
				return false
			}
			got2, err := decodeEdit(tree, 13, buf2)
			if err != nil || got2.level != inner.level || len(got2.entries) != ni {
				return false
			}
			// The boxes come back as float32, each face rounded outward:
			// containing what was written, and unchanged written again.
			for i := range inner.entries {
				if inner.entries[i].child != got2.entries[i].child {
					return false
				}
				want := cloneBoxes(inner.entries[i].boxes)
				for j := range want {
					roundOut(want[j])
					if !want[j].Equal(got2.entries[i].boxes[j]) || !want[j].Contains(inner.entries[i].boxes[j]) {
						return false
					}
				}
			}
			buf3 := make([]byte, pagefile.PageSize)
			if err := tree.encodeNode(got2, buf3); err != nil || !bytes.Equal(buf2, buf3) {
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatalf("dim %d: %v", dim, err)
		}
	}
}

// TestNodeSerializationRoundTripUPCR does the same for U-PCR entries
// (m PCR boxes with pcr(0) doubling as the MBR).
func TestNodeSerializationRoundTripUPCR(t *testing.T) {
	tree, err := New(Options{Dim: 2, Kind: UPCR, CatalogSize: 6})
	if err != nil {
		t.Fatal(err)
	}
	m := tree.cat.Size()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		leaf := &node{page: 5, level: 0}
		n := 1 + rng.Intn(tree.leafCap)
		for i := 0; i < n; i++ {
			// Nested boxes: box j+1 inside box j, as real PCRs are.
			boxes := make([]geom.Rect, m)
			boxes[0] = randRectIn(rng, 2, 1000)
			for j := 1; j < m; j++ {
				prev := boxes[j-1]
				shrink := rng.Float64() * 0.4
				lo := geom.Point{
					prev.Lo[0] + prev.Side(0)*shrink/2,
					prev.Lo[1] + prev.Side(1)*shrink/2,
				}
				hi := geom.Point{
					prev.Hi[0] - prev.Side(0)*shrink/2,
					prev.Hi[1] - prev.Side(1)*shrink/2,
				}
				boxes[j] = geom.Rect{Lo: lo, Hi: hi}
			}
			leaf.entries = append(leaf.entries, entry{
				id:    rng.Int63(),
				addr:  DataAddr{Page: pagefile.PageID(rng.Uint32()), Slot: uint16(rng.Intn(1 << 16))},
				shape: uint16(rng.Intn(centreEntry)),
				mbr:   boxes[0].Clone(),
				boxes: boxes,
			})
		}
		// The ends of the reference's range: a U-PCR entry is never compact
		// or centred.
		leaf.entries[0].shape, leaf.entries[n-1].shape = centreEntry-1, 0
		buf := make([]byte, pagefile.PageSize)
		if err := tree.encodeNode(leaf, buf); err != nil {
			return false
		}
		got, err := decodeEdit(tree, 5, buf)
		if err != nil || len(got.entries) != n {
			return false
		}
		for i := range leaf.entries {
			a, b := &leaf.entries[i], &got.entries[i]
			if a.id != b.id || a.addr != b.addr || a.shape != b.shape || !a.mbr.Equal(b.mbr) {
				return false
			}
			for j := 0; j < m; j++ {
				if !a.boxes[j].Equal(b.boxes[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// fullNodePages encodes one full leaf and one full intermediate node of
// tree, with random contents: a U-tree leaf of keyed, centre entries (the
// tree needs a shape table of balls, keyedTree), a U-PCR leaf of full ones.
func fullNodePages(tb testing.TB, tree *Tree) (leaf, inner []byte) {
	rng := rand.New(rand.NewSource(4))
	ln := &node{page: 7, level: 0}
	for i := 0; i < tree.leafCap; i++ {
		ln.entries = append(ln.entries, randLeafEntry(rng, tree, centreEntry))
	}
	in := &node{page: 8, level: 1}
	for i := 0; i < tree.innerCap; i++ {
		e := entry{child: pagefile.PageID(i + 10)}
		for b := 0; b < tree.innerBoxes(); b++ {
			e.boxes = append(e.boxes, randRectIn(rng, tree.dim, 1000))
		}
		in.entries = append(in.entries, e)
	}
	leaf, inner = make([]byte, pagefile.PageSize), make([]byte, pagefile.PageSize)
	if err := tree.encodeNode(ln, leaf); err != nil {
		tb.Fatal(err)
	}
	if err := tree.encodeNode(in, inner); err != nil {
		tb.Fatal(err)
	}
	return leaf, inner
}

// leafPages encodes four more U-tree leaves: a full leaf of unkeyed (full)
// entries; a mixed one, centre, compact and full entries in turn to fill
// the page; a leaf as a UTR4 file holds it, full entries that name a shape
// — the form every keyed entry had before compact entries; and a full leaf
// of compact entries, as a UTR6 file holds its balls' entries.
func leafPages(tb testing.TB, tree *Tree) (unkeyed, mixed, utr4, compact []byte) {
	rng := rand.New(rand.NewSource(5))
	pages := [4]*node{{page: 7}, {page: 7}, {page: 7}, {page: 7}}
	for i := 0; i < pageBytes/tree.leafEntrySize; i++ {
		pages[0].entries = append(pages[0].entries, randLeafEntry(rng, tree, 0))
	}
	pages[2].entries = pages[0].entries
	for bytes := 0; ; {
		e := randLeafEntry(rng, tree, entryForms[2-len(pages[1].entries)%3])
		if bytes += tree.entrySize(&e, true); bytes > pageBytes {
			break
		}
		pages[1].entries = append(pages[1].entries, e)
	}
	for i := 0; i < pageBytes/tree.compactEntrySize; i++ {
		pages[3].entries = append(pages[3].entries, randLeafEntry(rng, tree, compactEntry))
	}
	var out [4][]byte
	for k, n := range pages {
		out[k] = make([]byte, pagefile.PageSize)
		if err := tree.encodeNode(n, out[k]); err != nil {
			tb.Fatal(err)
		}
	}
	for i := range pages[2].entries {
		binary.LittleEndian.PutUint16(out[2][nodeHeader+i*tree.leafEntrySize+14:], uint16(1+i%len(tree.shapes)))
	}
	return out[0], out[1], out[2], out[3]
}

// TestDecodeNodeAllocations gates the decode: a node views its page, so a
// full node of either level and either kind costs the node and, for an
// intermediate node or a U-PCR leaf, its rects — at most 2 allocations
// however many entries it holds. A full U-tree leaf of centre, compact or
// full entries allocates its 128-byte node and no entry byte. A mixed leaf
// adds its 2-byte entry offsets; a node that cannot view its page — at an
// odd address, or on a big-endian host — adds a copy of the bytes its
// entries use, the bound every leaf had while the decode copied entries
// into slabs.
func TestDecodeNodeAllocations(t *testing.T) {
	for _, opt := range []Options{{Dim: 2}, {Dim: 3}, {Dim: 2, Kind: UPCR}} {
		tree := keyedTree(t, opt)
		leaf, inner := fullNodePages(t, tree)
		for name, page := range map[string][]byte{"leaf": leaf, "inner": inner} {
			allocs := testing.AllocsPerRun(50, func() {
				if _, err := tree.decodeNode(7, page); err != nil {
					t.Fatal(err)
				}
			})
			// A U-tree intermediate node reads its float32 boxes in place:
			// its one allocation is the node. A U-PCR node lays rects over
			// its page as well.
			budget := 2.0
			if tree.kind == UTree && name == "inner" {
				budget = 1
			}
			if allocs > budget {
				t.Errorf("%v %d-D: decoding a full %s node makes %v allocations, want ≤ %v", tree.kind, tree.dim, name, allocs, budget)
			}
		}
		if tree.kind != UTree {
			continue
		}
		unkeyed, mixed, _, compact := leafPages(t, tree)
		// An intermediate page before UTR6 is read into a float32 copy.
		n, err := tree.decodeNode(8, inner)
		if err != nil {
			t.Fatal(err)
		}
		w := tree.expand(n, nil)
		w.entries = w.entries[:pageBytes/wideInnerSize(tree.dim)]
		wide := make([]byte, pagefile.PageSize)
		encodeWideInner(w, wide)
		for _, c := range []struct {
			what   string
			page   []byte
			budget float64
		}{
			{"leaf of centre entries", leaf, 256},
			{"leaf of compact entries", compact, 256},
			{"leaf of full entries", unkeyed, 256},
			{"leaf of mixed entries", mixed, 256 + 2*float64(binary.LittleEndian.Uint16(mixed[2:]))},
			{"intermediate node", inner, 256},
			// Where the node cannot view the page, it copies what its
			// entries use.
			{"leaf of centre entries, copied", atOdd(leaf), 1.1*float64(nodeHeader+tree.leafCap*tree.centreEntrySize) + 256},
			{"intermediate node before UTR6", wide, 1.1*float64(nodeHeader+len(w.entries)*tree.innerEntrySize) + 256},
		} {
			const runs = 100
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				if _, err := tree.decodeNode(7, c.page); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			if got := float64(after.TotalAlloc-before.TotalAlloc) / runs; got > c.budget {
				t.Errorf("%d-D: decoding a full %s allocates %.0f B, want ≤ %.0f", tree.dim, c.what, got, c.budget)
			}
		}
	}
}

// atOdd is page's bytes at an odd address, which decodeNode cannot view
// and copies instead.
func atOdd(page []byte) []byte {
	b := make([]byte, len(page)+1)
	copy(b[1:], page)
	return b[1:]
}

// samePacked reports where two decodes of one page differ: in the bits any
// accessor returns.
func samePacked(tree *Tree, a, b *packedNode) error {
	rects := func(x, y []geom.Rect) bool {
		if len(x) != len(y) {
			return false
		}
		for k := range x {
			for d := range x[k].Lo {
				if math.Float64bits(x[k].Lo[d]) != math.Float64bits(y[k].Lo[d]) ||
					math.Float64bits(x[k].Hi[d]) != math.Float64bits(y[k].Hi[d]) {
					return false
				}
			}
		}
		return true
	}
	if a.page != b.page || a.level != b.level || a.count != b.count {
		return fmt.Errorf("page %d level %d count %d against page %d level %d count %d", a.page, a.level, a.count, b.page, b.level, b.count)
	}
	for i := 0; i < a.count; i++ {
		if !a.leaf() {
			same := tree.kind == UPCR && rects(a.boxes(i), b.boxes(i)) ||
				tree.kind == UTree && slices.EqualFunc(a.box32(i), b.box32(i), func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
			if a.child(i) != b.child(i) || !same {
				return fmt.Errorf("intermediate entry %d differs", i)
			}
			continue
		}
		aa, as := a.addr(i)
		ba, bs := b.addr(i)
		if a.id(i) != b.id(i) || aa != ba || as != bs || a.form(i) != b.form(i) {
			return fmt.Errorf("leaf entry %d differs", i)
		}
		if a.centred(i) {
			// A centre is a degenerate rectangle to compare.
			ac, bc := a.centre(i), b.centre(i)
			if !rects([]geom.Rect{{Lo: ac, Hi: ac}}, []geom.Rect{{Lo: bc, Hi: bc}}) {
				return fmt.Errorf("leaf entry %d's centres differ", i)
			}
			continue
		}
		if !rects([]geom.Rect{a.mbr(i)}, []geom.Rect{b.mbr(i)}) {
			return fmt.Errorf("leaf entry %d's MBRs differ", i)
		}
		switch {
		case tree.kind == UPCR:
			if !rects(a.boxes(i), b.boxes(i)) {
				return fmt.Errorf("leaf entry %d's PCRs differ", i)
			}
		case a.form(i) == 0:
			ao, ai := a.cfbs(i)
			bo, bi := b.cfbs(i)
			if !cfbEqual(ao, bo) || !cfbEqual(ai, bi) {
				return fmt.Errorf("leaf entry %d's CFBs differ", i)
			}
		}
	}
	return nil
}

// TestViewCopyPathsAgree decodes every page form — 2-D and 3-D centre,
// compact, full, mixed (centre, compact and full) and UTR4-era U-tree
// leaves, intermediate nodes, U-PCR leaves — from an 8-byte aligned buffer, which the node views, from the same
// bytes at an odd address, which it copies; and copied field by field, as
// a big-endian host copies it: every accessor returns the same bits on
// every path.
func TestViewCopyPathsAgree(t *testing.T) {
	for _, opt := range []Options{{Dim: 2}, {Dim: 3}, {Dim: 2, Kind: UPCR}, {Dim: 3, Kind: UPCR}} {
		tree := keyedTree(t, opt)
		leaf, inner := fullNodePages(t, tree)
		pages := map[string][]byte{"leaf": leaf, "inner": inner}
		if tree.kind == UTree {
			pages["full"], pages["mixed"], pages["utr4"], pages["compact"] = leafPages(t, tree)
		}
		for name, page := range pages {
			view, err := tree.decodeNode(7, page)
			if err != nil {
				t.Fatal(err)
			}
			odd := atOdd(page)
			cp, err := tree.decodeNode(7, odd)
			if err != nil {
				t.Fatal(err)
			}
			if &view.buf[0] != &page[0] || &cp.buf[0] == &odd[0] {
				t.Fatalf("%v %d-D %s: the aligned page was copied, or the odd one viewed", tree.kind, tree.dim, name)
			}
			// A big-endian host copies field by field: so does fields, over
			// a zeroed buffer, so every field is shown to be copied.
			fields := *cp
			if fields.buf = make([]byte, len(cp.buf)); floats[float64](fields.buf, 0, 1) == nil {
				t.Fatal("a fresh buffer is not 8-byte aligned")
			}
			fields.copyFields(page[:len(cp.buf)], tree.kind == UTree && view.leaf())
			for path, other := range map[string]*packedNode{"copy": cp, "field-by-field copy": &fields} {
				if err := samePacked(tree, view, other); err != nil {
					t.Errorf("%v %d-D %s: view and %s: %v", tree.kind, tree.dim, name, path, err)
				}
			}
		}
	}
}

// BenchmarkDecodeLeaf decodes one full U-tree leaf page of centre (keyed
// ball) entries, one of compact entries (a UTR6 file's), one of full
// (unkeyed) entries and one full intermediate page: what every
// decoded-node cache miss of a query pays per node visited, and in B/op
// what the cache then holds for the node beside its page. The centre leaf
// is decoded a second time from an odd address, which the node cannot
// view: the copy path, which a big-endian host takes.
func BenchmarkDecodeLeaf(b *testing.B) {
	for _, dim := range []int{2, 3} {
		tree := keyedTree(b, Options{Dim: dim})
		centre, inner := fullNodePages(b, tree)
		full, _, _, compact := leafPages(b, tree)
		for _, c := range []struct {
			name string
			page []byte
		}{
			{fmt.Sprintf("%dD-%dcentre", dim, tree.leafCap), centre},
			{fmt.Sprintf("%dD-%dcentre-copied", dim, tree.leafCap), atOdd(centre)},
			{fmt.Sprintf("%dD-%dcompact", dim, pageBytes/tree.compactEntrySize), compact},
			{fmt.Sprintf("%dD-%dfull", dim, pageBytes/tree.leafEntrySize), full},
			{fmt.Sprintf("%dD-%dinner", dim, tree.innerCap), inner},
		} {
			b.Run(c.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := tree.decodeNode(7, c.page); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// FuzzDecodeNode feeds arbitrary bytes to the node decoder as a leaf or an
// intermediate page of a U-tree and a U-PCR tree, in 2-D and 3-D, each with
// a two-shape table, both aligned (a view) and at an odd address (a copy).
// The decoder returns a typed BadPageError on both, or on both a packed
// node whose accessors return the same bits, that every accessor reads
// without panicking and whose edit form
// re-encodes to the bytes the page uses: the level, the count and the
// entries, less
// the pad word of an intermediate entry, which nothing reads and encodeNode
// zeroes — and less the CFBs of a full U-tree entry that names a shape, as a
// UTR4 file's do, which is rewritten compact. Its seeds include full
// leaves of each U-tree entry form and a leaf of all three.
func FuzzDecodeNode(f *testing.F) {
	var trees []*Tree
	for _, opt := range []Options{{Dim: 2}, {Dim: 3}, {Dim: 2, Kind: UPCR}, {Dim: 3, Kind: UPCR}} {
		trees = append(trees, keyedTree(f, opt))
	}
	for i, tree := range trees {
		leaf, inner := fullNodePages(f, tree)
		f.Add(uint8(i), true, leaf)
		f.Add(uint8(i), false, inner)
		f.Add(uint8(i), true, leaf[:200])
		f.Add(uint8(i), false, []byte{3, 0, 0xFF, 0xFF}) // count beyond capacity
		if tree.kind == UTree {
			// An intermediate page as a file before UTR6 holds it.
			wide := make([]byte, pagefile.PageSize)
			n, err := tree.decodeNode(8, inner)
			if err != nil {
				f.Fatal(err)
			}
			w := tree.expand(n, nil)
			w.entries = w.entries[:pageBytes/wideInnerSize(tree.dim)]
			encodeWideInner(w, wide)
			f.Add(uint8(i), false, wide)
			_, mixed, utr4, compact := leafPages(f, tree)
			f.Add(uint8(i), true, mixed)
			f.Add(uint8(i), true, utr4)
			f.Add(uint8(i), true, compact)
			// Full entries counted to a centre leaf's capacity overrun the
			// page.
			overrun := slices.Clone(utr4)
			binary.LittleEndian.PutUint16(overrun[2:], uint16(tree.leafCap))
			f.Add(uint8(i), true, overrun)
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, leaf bool, data []byte) {
		tree := trees[int(which)%len(trees)]
		page := make([]byte, pagefile.PageSize)
		copy(page, data)
		if leaf {
			page[0] = 0
		} else if page[0] == 0 {
			page[0] = 1
		}
		p, err := tree.decodeNode(9, page)
		cp, cerr := tree.decodeNode(9, atOdd(page))
		if (err == nil) != (cerr == nil) {
			t.Fatalf("the view decodes with %v, the copy with %v", err, cerr)
		}
		if err != nil {
			var bad *pagefile.BadPageError
			if !errors.As(err, &bad) || bad.Page != 9 {
				t.Fatalf("decode error is not a BadPageError for page 9: %v", err)
			}
			return
		}
		if err := samePacked(tree, p, cp); err != nil {
			t.Fatalf("view and copy: %v", err)
		}
		for i := 0; i < p.count; i++ {
			switch {
			case !p.leaf() && tree.kind == UTree:
				_ = p.child(i)
				if got := len(p.box32(i)); got != 4*tree.dim {
					t.Fatalf("entry %d has %d faces, want %d", i, got, 4*tree.dim)
				}
				continue
			case !p.leaf():
				_ = p.child(i)
				if got := len(p.boxes(i)); got != tree.innerBoxes() {
					t.Fatalf("entry %d has %d boxes, want %d", i, got, tree.innerBoxes())
				}
				continue
			}
			_, _ = p.id(i), p.form(i)
			_, _ = p.addr(i)
			if mbr, ok := p.leafMBR(i, tree.shapes, geom.Rect{Lo: make(geom.Point, tree.dim), Hi: make(geom.Point, tree.dim)}); ok && mbr.Dim() != tree.dim {
				t.Fatalf("entry %d MBR has %d dimensions", i, mbr.Dim())
			}
			if tree.kind == UPCR {
				_ = p.boxes(i)
			} else if p.centred(i) {
				_ = p.centre(i)
			} else if p.form(i) == compactEntry {
				continue
			} else if out, in := p.cfbs(i); len(out) != 4*tree.dim || len(in) != 4*tree.dim {
				t.Fatalf("entry %d CFBs hold %d and %d coefficients", i, len(out), len(in))
			}
		}
		again := make([]byte, pagefile.PageSize)
		if err := tree.encodeNode(tree.expand(p, tree.shapes), again); err != nil {
			t.Fatal(err)
		}
		if !p.leaf() && tree.kind == UTree {
			// A U-tree intermediate node re-encodes in the float32 layout,
			// whichever it was read in, holding the faces it read — a NaN
			// up to its payload, which widening to float64 may quiet.
			q, err := tree.decodeNode(9, again)
			if err != nil || again[1] != halfInner || q.level != p.level || q.count != p.count {
				t.Fatalf("the decoded node re-encodes to a page that decodes with %v, flags %#x", err, again[1])
			}
			for i := 0; i < p.count; i++ {
				same := q.child(i) == p.child(i)
				for k, v := range q.box32(i) {
					w := p.box32(i)[k]
					same = same && (math.Float32bits(v) == math.Float32bits(w) || v != v && w != w)
				}
				if !same {
					t.Fatalf("intermediate entry %d re-encodes to other values", i)
				}
			}
			return
		}
		want := make([]byte, pagefile.PageSize)
		want[0] = page[0]
		copy(want[2:4], page[2:4])
		for i, from, to := 0, nodeHeader, nodeHeader; i < p.count; i++ {
			sz, keep := tree.innerEntrySize, tree.innerEntrySize
			compact := false // a full entry naming a shape, rewritten compact
			if p.leaf() {
				_, ref := p.addr(i)
				compact = tree.kind == UTree && ref != 0 && p.form(i) == 0
			}
			switch {
			case p.leaf() && p.centred(i):
				sz, keep = tree.centreEntrySize, tree.centreEntrySize
			case p.leaf() && p.form(i) == compactEntry:
				sz, keep = tree.compactEntrySize, tree.compactEntrySize
			case compact:
				sz, keep = tree.leafEntrySize, tree.compactEntrySize
			case p.leaf():
				sz, keep = tree.leafEntrySize, tree.leafEntrySize
			}
			copy(want[to:to+keep], page[from:from+keep])
			if !p.leaf() {
				clear(want[to+4 : to+8])
			} else if compact {
				want[to+15] |= compactEntry >> 8
			}
			from, to = from+sz, to+keep
		}
		if !bytes.Equal(again, want) {
			t.Fatal("the decoded node re-encodes to other bytes")
		}
	})
}

// FuzzDataRecord feeds arbitrary bytes to the data-page record codec, which
// a delete now runs on the write path: as a data page (short or full) and
// a slot through RecordFromPage and the object decoder — against a 2-D and
// a 3-D two-shape table, so keyed records resolve — which must return
// ErrBadSlot / ErrCorruptPDF or a record inside the page where the slot
// table puts it (on a dense page below the offset before it and above the
// slot table) whose decoded pdf has an MBR and re-encodes to the record's
// bytes — never panic; and as a record, appended to a tree after slot%8
// others, which must read back byte-equal from the dirty bytes, from the
// store after the commit and from its page, or be refused when it is empty
// or does not fit a page. The seeds hold a dense page and the legacy page
// a UTR7 writer would have written with the same objects.
func FuzzDataRecord(f *testing.F) {
	box := geom.NewRect(geom.Point{1, 2}, geom.Point{5, 9})
	pdfs := []updf.PDF{
		updf.NewUniformBall(geom.Point{3, 4}, 2),
		updf.NewConGauBall(geom.Point{3, 4, 5}, 2, 1),
		updf.NewUniformRect(box),
		updf.NewGaussRect(box, geom.Point{2, 5}, []float64{1, 2}),
		updf.NewExpoRect(box, []float64{0.5, 2}),
		updf.NewUniformPolygon([]geom.Point{{0, 0}, {4, 0}, {2, 3}}),
		updf.NewHistogramRect(box, []int{2, 2}, []float64{1, 2, 3, 4}),
		updf.NewMixture([]updf.PDF{updf.NewUniformBall(geom.Point{3, 4}, 2), updf.NewUniformRect(box)}, []float64{1, 3}),
	}
	tables := [][]shape{fuzzShapes(2), fuzzShapes(3)}
	tree, err := New(Options{Dim: 2})
	if err != nil {
		f.Fatal(err)
	}
	var addr DataAddr
	var legacy [][]byte // the records as a UTR7 writer wrote them
	add := func(o Object, ref uint16, table []shape) {
		rec, err := encodeObject(o, ref, table)
		if err != nil {
			f.Fatal(err)
		}
		if addr, err = tree.appendData(rec); err != nil {
			f.Fatal(err)
		}
		f.Add(rec, addr.Slot)
		legacy = append(legacy, legacyRecord(rec))
	}
	for i, p := range pdfs {
		add(Object{ID: int64(i-4) << (8 * i), PDF: p}, 0, nil) // ids of 1 to 9 varint bytes
	}
	for k, table := range tables {
		for ref, sh := range table {
			ctr := make(geom.Point, sh.fit.Proto().Dim())
			for i := range ctr {
				ctr[i] = float64(7 * (i + 1))
			}
			id := []int64{200, math.MinInt64}[k] + int64(ref) // 2 and 10 varint bytes
			add(Object{ID: id, PDF: sh.fit.Recentrer().Recentred(ctr)}, uint16(ref+1), table)
		}
	}
	nrec := len(pdfs) + 4
	page := tree.dirty[addr.Page] // every seed record is on it
	for slot := uint16(0); slot <= uint16(nrec); slot++ {
		f.Add(page, slot)
	}
	f.Add(page[:40], uint16(3))                     // slot table cut short
	f.Add([]byte{0xFF, 0xFF, 0, 0}, uint16(0xFFFE)) // count beyond the page
	f.Add([]byte{}, uint16(0))
	old := layPage(f, legacy, true)
	for slot := uint16(0); slot <= uint16(nrec); slot++ {
		f.Add(old, slot)
	}
	f.Add(old[:40], uint16(3))
	// Dense pages whose offsets do not strictly decrease, or reach into
	// the slot table.
	for _, b := range []struct{ slot, off uint16 }{{3, 0}, {5, 1}, {0, pagefile.PageSize}, {7, dataHeader + 2*uint16(nrec) - 1}} {
		bad := bytes.Clone(page)
		at := dataHeader + 2*int(b.slot)
		if b.slot > 0 && b.off < 2 {
			b.off += binary.LittleEndian.Uint16(bad[at-2:]) // the one before, or past it
		}
		binary.LittleEndian.PutUint16(bad[at:], b.off)
		f.Add(bad, b.slot)
	}
	f.Fuzz(func(t *testing.T, data []byte, slot uint16) {
		full := make([]byte, pagefile.PageSize)
		copy(full, data)
		for _, page := range [][]byte{data, full} {
			rec, legacy, err := RecordFromPage(page, slot)
			if err != nil {
				if !errors.Is(err, ErrBadSlot) {
					t.Fatalf("slot %d of a %d-byte page: %v, want ErrBadSlot", slot, len(page), err)
				}
				continue
			}
			// Where the slot table says the record lies.
			ent := dataHeader + 2*int(slot)
			off, end := int(binary.LittleEndian.Uint16(page[ent:])), pagefile.PageSize
			switch {
			case legacy:
				ent = dataHeader + 4*int(slot)
				off = int(binary.LittleEndian.Uint16(page[ent:]))
				end = off + int(binary.LittleEndian.Uint16(page[ent+2:]))
			case slot > 0:
				end = int(binary.LittleEndian.Uint16(page[ent-2:]))
			}
			table := dataHeader + 2*int(binary.LittleEndian.Uint16(page)&^denseFlag)
			if off >= end || end > len(page) || !legacy && off < table || len(rec) != end-off || &rec[0] != &page[off] {
				t.Fatalf("slot %d of a %d-byte page (legacy %v): a %d-byte record, the slot table puts it at [%d, %d)", slot, len(page), legacy, len(rec), off, end)
			}
			for _, table := range tables {
				o, err := decodeObject(rec, legacy, table)
				if err != nil {
					if !errors.Is(err, updf.ErrCorruptPDF) {
						t.Fatalf("record %x: %v, want ErrCorruptPDF", rec, err)
					}
					continue
				}
				_ = o.PDF.MBR()
				var ref uint16
				if recordTag(rec, legacy) == keyedTag {
					ref = binary.LittleEndian.Uint16(rec[len(rec)-2-8*o.PDF.Dim():])
				}
				again, err := encodeObject(o, ref, table)
				if legacy {
					again = legacyRecord(again)
				}
				if err != nil || !bytes.Equal(again, rec) {
					t.Fatalf("record %x decodes and re-encodes to %x (%v)", rec, again, err)
				}
			}
		}

		tree, err := New(Options{Dim: 2})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < int(slot%8); i++ {
			if _, err := tree.appendData([]byte{byte(i), 1, 2, 3}); err != nil {
				t.Fatal(err)
			}
		}
		addr, err := tree.appendData(data)
		if fits := len(data) > 0 && dataHeader+2+len(data) <= pagefile.PageSize; !fits {
			if err == nil {
				t.Fatalf("a %d-byte record was appended", len(data))
			}
			return
		}
		if err != nil {
			t.Fatalf("append of a %d-byte record: %v", len(data), err)
		}
		check := func(from string, rec []byte, err error) {
			t.Helper()
			if err != nil || !bytes.Equal(rec, data) {
				t.Fatalf("record read back %s: %d bytes, err %v; appended %d", from, len(rec), err, len(data))
			}
		}
		rec, err := bytesOf(tree.readRecord(addr))
		check("from the dirty bytes", rec, err)
		if err := tree.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := tree.Rollback(); err != nil { // drops the writer's copy: reads go to the store
			t.Fatal(err)
		}
		rec, err = bytesOf(tree.readRecord(addr))
		check("from the store", rec, err)
		rec, err = storedRecord(t, tree, addr)
		check("from its page", rec, err)
	})
}

// fuzzShapes is a two-shape table of d-dimensional recentrable prototypes.
func fuzzShapes(d int) []shape {
	cat := pcr.UniformCatalog(15)
	var table []shape
	for _, p := range []updf.PDF{
		updf.NewUniformBall(make(geom.Point, d), 2),
		updf.NewConGauBall(make(geom.Point, d), 3, 1.5),
	} {
		enc, err := updf.Encode(p)
		if err != nil {
			panic(err)
		}
		table = appendShape(table, p, enc, cat)
	}
	return table
}

// TestWritersLeaveCachedNodesAlone: the writers edit nodes they decode
// from private copies of their pages, never a page a cached node views —
// the store's own committed page, in memory or in the file's mapping. The
// bytes of every node the cache holds, copied after queries filled it,
// still equal that node's bytes whenever the cache holds it again, after
// inserts with splits, deletes with condensing and rolled-back write
// batches, and its rectangles (rects) still lie where the bytes hold them;
// and the tree keeps its invariants throughout. A node the cache has
// dropped is not held to its bytes: its page may since have been freed and
// reused, on either store.
func TestWritersLeaveCachedNodesAlone(t *testing.T) {
	for _, kind := range []Kind{UTree, UPCR} {
		for _, onFile := range []bool{false, true} {
			opt := Options{Dim: 2, Kind: kind}
			if onFile {
				fs, err := pagefile.CreateFileStore(filepath.Join(t.TempDir(), "writers.idx"))
				if err != nil {
					t.Fatal(err)
				}
				defer fs.Close()
				opt.Store = fs
			}
			writersLeaveCachedNodesAlone(t, opt)
		}
	}
}

func writersLeaveCachedNodesAlone(t *testing.T, opt Options) {
	tree, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	what := fmt.Sprintf("%v, file %v", opt.Kind, opt.Store != nil)
	objs := makeObjects(1200, 2000, rand.New(rand.NewSource(41)))
	held := map[*packedNode][]byte{}
	// intact reports how cached node p differs from its bytes c when the
	// cache first held it: in a byte, or in a rectangle of an intermediate
	// node or U-PCR leaf that no longer lies over its place in the bytes —
	// one a writer replaced in an entry expanded from the shared node.
	intact := func(p *packedNode, c []byte) error {
		if !bytes.Equal(p.buf, c) {
			return fmt.Errorf("%s: cached node %d changed", what, p.page)
		}
		if tree.kind == UTree {
			return nil // its nodes hold no rects
		}
		off := 8
		if p.leaf() {
			off = 16
		}
		for i := 0; i < p.count; i++ {
			for j, r := range p.boxes(i) {
				want := p.rect(p.at(i) + off + j*16*tree.dim)
				if len(r.Lo) != tree.dim || len(r.Hi) != tree.dim || &r.Lo[0] != &want.Lo[0] || &r.Hi[0] != &want.Hi[0] {
					return fmt.Errorf("%s: cached node %d: rectangle %d of entry %d moved off its page", what, p.page, j, i)
				}
			}
		}
		return nil
	}
	// fill queries everything, then compares what the cache holds with the
	// bytes it held before: a cached node's page is freed, and its bytes
	// may change, only after the cache has dropped it.
	fill := func() {
		t.Helper()
		if _, _, err := rangeQuery(tree, Query{Rect: geom.NewRect(geom.Point{0, 0}, geom.Point{2100, 2100}), Prob: 0.3}); err != nil {
			t.Fatal(err)
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		for _, p := range tree.cachedNodes() {
			c, ok := held[p]
			if !ok {
				c = slices.Clone(p.buf)
				held[p] = c
			}
			if err := intact(p, c); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, o := range objs[:600] {
		if err := tree.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	fill()
	for i, o := range objs[600:] { // splits
		if err := tree.Insert(o); err != nil {
			t.Fatal(err)
		}
		if i%100 == 99 {
			fill()
		}
	}
	for i, o := range objs[:900] { // condensing
		if err := tree.Delete(o.ID); err != nil {
			t.Fatal(err)
		}
		if i%100 == 99 {
			fill()
		}
	}
	for _, o := range objs[:300] { // a batch rolled back
		if err := tree.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Rollback(); err != nil {
		t.Fatal(err)
	}
	for _, o := range objs[900:] {
		if err := tree.Delete(o.ID); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Rollback(); err != nil {
		t.Fatal(err)
	}
	fill()
	if len(held) < 50 {
		t.Fatalf("%s: the cache held only %d nodes", what, len(held))
	}
}

// TestEncodeNodeRejectsOverfull: one entry beyond a page of full entries,
// of compact ones and of centre ones, and a full page of compact entries
// with one turned full, and of centre entries with one turned full.
func TestEncodeNodeRejectsOverfull(t *testing.T) {
	tree := keyedTree(t, Options{Dim: 2})
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		n      int
		form   func(i int) uint16
		fitsAt int // entries that still fit
	}{
		{37, func(int) uint16 { return 0 }, 36},
		{86, func(int) uint16 { return compactEntry }, 85},
		{85, func(i int) uint16 { return min(uint16(i), 1) * compactEntry }, 84},
		{128, func(int) uint16 { return centreEntry }, 127},
		{127, func(i int) uint16 { return min(uint16(i), 1) * centreEntry }, 126},
	} {
		n := &node{page: 1, level: 0}
		for i := 0; i < c.n; i++ {
			n.entries = append(n.entries, randLeafEntry(rng, tree, c.form(i)))
		}
		buf := make([]byte, pagefile.PageSize)
		if err := tree.encodeNode(n, buf); err == nil {
			t.Fatalf("%d entries, %d B: overfull node serialized", c.n, tree.entryBytes(n.entries, true))
		}
		n.entries = n.entries[len(n.entries)-c.fitsAt:]
		if err := tree.encodeNode(n, buf); err != nil {
			t.Fatalf("%d entries, %d B: %v", c.fitsAt, tree.entryBytes(n.entries, true), err)
		}
	}
}

func TestDecodeNodeRejectsCorruptCount(t *testing.T) {
	tree, _ := New(Options{Dim: 2})
	buf := make([]byte, pagefile.PageSize)
	buf[0] = 0   // leaf
	buf[2] = 255 // count 255 > capacity
	if _, err := tree.decodeNode(1, buf); err == nil {
		t.Fatal("corrupt count accepted")
	}
}

// TestEntrySizesMatchPaperArithmetic pins the storage arithmetic of
// Section 6.3: 16 CFB values per 2D U-tree entry (24 in 3D), 4 bytes each,
// versus 2dm 8-byte PCR values per U-PCR entry.
func TestEntrySizesMatchPaperArithmetic(t *testing.T) {
	// The shape reference took two bytes that were there: on the page (the
	// sizes and capacities below are what they were before it) and in memory.
	if sz := unsafe.Sizeof(entry{}); sz != 176 {
		t.Errorf("entry struct is %d bytes, want 176: 168 with its shape reference, and a pointer to the shape's fit; a centre took the place of a U-PCR leaf's own PCR slice", sz)
	}
	// d=2 U-tree: id(8)+addr(6)+shape(2)+MBR(32)+CFBs(16 float32 = 64) = 112.
	leaf, inner := entrySizes(UTree, 2, 15)
	if leaf != 112 {
		t.Errorf("U-tree 2D leaf entry = %d B, want 112", leaf)
	}
	// Intermediate: child(4)+pad(4)+MBR⊥+MBR⊤ as float32 (72 B and 104 B
	// as float64 before UTR6, wideInnerSize).
	if inner != 8+32 || wideInnerSize(2) != 8+64 {
		t.Errorf("U-tree 2D inner entry = %d B, want 40 (72 before UTR6: %d)", inner, wideInnerSize(2))
	}
	// d=3 U-tree: CFBs are 24 float32.
	leaf3, inner3 := entrySizes(UTree, 3, 15)
	if leaf3 != 16+48+96 {
		t.Errorf("U-tree 3D leaf entry = %d B, want 160", leaf3)
	}
	if inner3 != 8+48 || wideInnerSize(3) != 8+96 {
		t.Errorf("U-tree 3D inner entry = %d B, want 56 (104 before UTR6: %d)", inner3, wideInnerSize(3))
	}
	// Full entries fill a page at 36 (2-D) and 25 (3-D), compact ones —
	// id(8)+addr(6)+shape(2)+MBR, 48 and 64 B — at 85 and 63, centre ones —
	// id(8)+addr(6)+shape(2)+centre, 32 and 40 B — at 127 and 102, which is
	// what Fanout reports; intermediate nodes hold 102 and 73 (56 and 39
	// before UTR6).
	for _, c := range []struct{ dim, leaf, centre, inner int }{{2, 36, 127, 102}, {3, 25, 102, 73}} {
		if lc, ic := capacities(UTree, c.dim, 15); lc != c.leaf || ic != c.inner {
			t.Errorf("U-tree %dD capacities = %d/%d, want %d/%d", c.dim, lc, ic, c.leaf, c.inner)
		}
		tree, err := New(Options{Dim: c.dim})
		if err != nil {
			t.Fatal(err)
		}
		if lc, ic := tree.Fanout(); lc != c.centre || ic != c.inner || compactSize(c.dim) != 16+16*c.dim || centreSize(c.dim) != 16+8*c.dim {
			t.Errorf("U-tree %dD fan-out = %d/%d, want %d/%d", c.dim, lc, ic, c.centre, c.inner)
		}
	}
	// d=2 U-PCR at m=9: 36 PCR values = 288 B + ids.
	leafP, innerP := entrySizes(UPCR, 2, 9)
	if leafP != 16+9*32 {
		t.Errorf("U-PCR 2D leaf entry = %d B, want 304", leafP)
	}
	if innerP != 8+9*32 {
		t.Errorf("U-PCR 2D inner entry = %d B, want 296", innerP)
	}
	// Fanout relations of Table 1's discussion.
	lc, ic := capacities(UTree, 2, 15)
	lcP, icP := capacities(UPCR, 2, 9)
	if !(lc > lcP && ic > icP) {
		t.Errorf("fanouts: U-tree %d/%d vs U-PCR %d/%d", lc, ic, lcP, icP)
	}
	// U-tree entry size is independent of the catalog size m.
	a, _ := entrySizes(UTree, 2, 3)
	b, _ := entrySizes(UTree, 2, 30)
	if a != b {
		t.Error("U-tree entry size depends on m (it must not)")
	}
}

// interpRect is interpInto into a fresh rectangle.
func interpRect(a, b geom.Rect, f float64) geom.Rect {
	r := geom.Rect{Lo: make(geom.Point, a.Dim()), Hi: make(geom.Point, a.Dim())}
	interpInto(r, a, b, f)
	return r
}

// TestInterpRectBounds verifies the linear e.MBR(p) interpolation agrees
// with its endpoints and stays between them.
func TestInterpRectBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		outer := randRectIn(rng, 2, 1000)
		inner := geom.Rect{
			Lo: geom.Point{outer.Lo[0] + outer.Side(0)*0.2, outer.Lo[1] + outer.Side(1)*0.3},
			Hi: geom.Point{outer.Hi[0] - outer.Side(0)*0.25, outer.Hi[1] - outer.Side(1)*0.15},
		}
		if interpRect(outer, inner, 0).Equal(outer) != true {
			t.Fatal("f=0 must return the first box")
		}
		if interpRect(outer, inner, 1).Equal(inner) != true {
			t.Fatal("f=1 must return the second box")
		}
		for _, f := range []float64{0.25, 0.5, 0.75} {
			mid := interpRect(outer, inner, f)
			if !outer.Contains(mid) || !mid.Contains(inner) {
				t.Fatalf("interp at %g escapes its bounds", f)
			}
		}
	}
}

// TestBoxAtMonotoneShrink: for nested boundary boxes, boxAt(j) must shrink
// (or stay equal) as j grows — the geometric property Observation 4 leans
// on.
func TestBoxAtMonotoneShrink(t *testing.T) {
	tree, _ := New(Options{Dim: 2, CatalogSize: 8})
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		outer := randRectIn(rng, 2, 1000)
		inner := geom.Rect{
			Lo: geom.Point{outer.Lo[0] + outer.Side(0)*0.3, outer.Lo[1] + outer.Side(1)*0.3},
			Hi: geom.Point{outer.Hi[0] - outer.Side(0)*0.3, outer.Hi[1] - outer.Side(1)*0.3},
		}
		boxes := []geom.Rect{outer, inner}
		prevArea := math.Inf(1)
		for j := 0; j < tree.cat.Size(); j++ {
			b := tree.boxAt(boxes, j)
			if !outer.Contains(b) {
				t.Fatal("interpolated box escapes MBR⊥")
			}
			area := b.Area()
			if area > prevArea+1e-9 {
				t.Fatalf("boxAt grew from p_%d to p_%d", j-1, j)
			}
			prevArea = area
		}
	}
}
