package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
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

// randLeafEntry is a leaf entry with random contents: keyed (a reference
// into the tree's shape table, written compact) or, where keyed is false or
// the tree is a U-PCR tree, unkeyed with random CFBs or PCRs.
func randLeafEntry(rng *rand.Rand, tree *Tree, keyed bool) entry {
	e := entry{
		id:   rng.Int63(),
		addr: pagefile.DataAddr{Page: pagefile.PageID(rng.Uint32()), Slot: uint16(rng.Intn(1 << 16))},
		mbr:  randRectIn(rng, tree.dim, 1000),
	}
	switch {
	case tree.kind == UPCR:
		e.pcrs = make([]geom.Rect, tree.cat.Size())
		for j := range e.pcrs {
			e.pcrs[j] = e.mbr
		}
	case keyed:
		e.shape = uint16(1 + rng.Intn(len(tree.shapes)))
		e.fit = tree.shapes[e.shape-1].fit
	default:
		e.out, e.in = randCFB(rng, tree.dim), randCFB(rng, tree.dim)
	}
	return e
}

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
// leaf holds keyed (compact) and unkeyed (full) entries in any mix, up to
// what its page holds.
func TestNodeSerializationRoundTripUTree(t *testing.T) {
	for _, dim := range []int{1, 2, 3} {
		tree := keyedTree(t, Options{Dim: dim})
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			// Leaf node.
			leaf := &node{page: 12, level: 0}
			share := rng.Float64()
			for n, bytes := 1+rng.Intn(tree.leafCap), 0; len(leaf.entries) < n; {
				e := randLeafEntry(rng, tree, rng.Float64() < share)
				if bytes += tree.entrySize(&e, true); bytes > pageBytes {
					break
				}
				leaf.entries = append(leaf.entries, e)
			}
			n := len(leaf.entries)
			// The ends of the address's range.
			leaf.entries[0].addr = pagefile.DataAddr{Page: 0xFFFFFFFF, Slot: 0xFFFF}
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
					!cfbEqual(a.out, b.out) || !cfbEqual(a.in, b.in) {
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
			for i := range inner.entries {
				if inner.entries[i].child != got2.entries[i].child {
					return false
				}
				for j := range inner.entries[i].boxes {
					if !inner.entries[i].boxes[j].Equal(got2.entries[i].boxes[j]) {
						return false
					}
				}
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
				addr:  pagefile.DataAddr{Page: pagefile.PageID(rng.Uint32()), Slot: uint16(rng.Intn(1 << 16))},
				shape: uint16(rng.Intn(compactEntry)),
				mbr:   boxes[0].Clone(),
				pcrs:  boxes,
			})
		}
		// The ends of the reference's range: a U-PCR entry is never compact.
		leaf.entries[0].shape, leaf.entries[n-1].shape = compactEntry-1, 0
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
				if !a.pcrs[j].Equal(b.pcrs[j]) {
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
// tree, with random contents: a U-tree leaf of keyed, compact entries (the
// tree needs a shape table, keyedTree), a U-PCR leaf of full ones.
func fullNodePages(tb testing.TB, tree *Tree) (leaf, inner []byte) {
	rng := rand.New(rand.NewSource(4))
	ln := &node{page: 7, level: 0}
	for i := 0; i < tree.leafCap; i++ {
		ln.entries = append(ln.entries, randLeafEntry(rng, tree, true))
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

// leafPages encodes three more U-tree leaves: a full leaf of unkeyed (full)
// entries; a mixed one, keyed and unkeyed entries alternating to fill the
// page; and a leaf as a UTR4 file holds it, full entries that name a shape
// — the form every keyed entry had before compact entries.
func leafPages(tb testing.TB, tree *Tree) (unkeyed, mixed, utr4 []byte) {
	rng := rand.New(rand.NewSource(5))
	pages := [3]*node{{page: 7}, {page: 7}, {page: 7}}
	for i := 0; i < pageBytes/tree.leafEntrySize; i++ {
		pages[0].entries = append(pages[0].entries, randLeafEntry(rng, tree, false))
	}
	pages[2].entries = pages[0].entries
	for bytes := 0; ; {
		e := randLeafEntry(rng, tree, len(pages[1].entries)%2 == 0)
		if bytes += tree.entrySize(&e, true); bytes > pageBytes {
			break
		}
		pages[1].entries = append(pages[1].entries, e)
	}
	var out [3][]byte
	for k, n := range pages {
		out[k] = make([]byte, pagefile.PageSize)
		if err := tree.encodeNode(n, out[k]); err != nil {
			tb.Fatal(err)
		}
	}
	for i := range pages[2].entries {
		binary.LittleEndian.PutUint16(out[2][nodeHeader+i*tree.leafEntrySize+14:], uint16(1+i%len(tree.shapes)))
	}
	return out[0], out[1], out[2]
}

// TestDecodeNodeAllocations gates the packed decode: a full node of either
// level and either kind costs the node and its slabs, at most 4 allocations
// however many entries it holds (a 2-D U-tree leaf was 232 when every
// rectangle and coefficient array had its own), and a full U-tree leaf of
// compact entries allocates about its page's entry bytes (85 × 48 = 4,080 B
// in 2-D, 63 × 64 = 4,032 in 3-D), as one of full entries does (36 × 112 =
// 4,032, 25 × 160 = 4,000): a cached leaf costs about one page of heap.
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
			if allocs > 4 {
				t.Errorf("%v %d-D: decoding a full %s node makes %v allocations, want ≤ 4", tree.kind, tree.dim, name, allocs)
			}
		}
		if tree.kind != UTree {
			continue
		}
		unkeyed, _, _ := leafPages(t, tree)
		for _, c := range []struct {
			what       string
			page       []byte
			entryBytes int
		}{{"compact", leaf, tree.leafCap * tree.compactEntrySize}, {"full", unkeyed, pageBytes / tree.leafEntrySize * tree.leafEntrySize}} {
			const runs = 100
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				if _, err := tree.decodeNode(7, c.page); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			budget := 1.1*float64(c.entryBytes) + 256
			if got := float64(after.TotalAlloc-before.TotalAlloc) / runs; got > budget {
				t.Errorf("%d-D: decoding a full leaf of %s entries (%d entry bytes) allocates %.0f B, want ≤ %.0f",
					tree.dim, c.what, c.entryBytes, got, budget)
			}
		}
	}
}

// BenchmarkDecodeLeaf decodes one full U-tree leaf page of compact (keyed)
// entries and one of full (unkeyed) entries: what every decoded-node cache
// miss of a query pays per leaf visited, and in B/op what the cache then
// holds for the leaf.
func BenchmarkDecodeLeaf(b *testing.B) {
	for _, dim := range []int{2, 3} {
		tree := keyedTree(b, Options{Dim: dim})
		compact, _ := fullNodePages(b, tree)
		full, _, _ := leafPages(b, tree)
		for _, c := range []struct {
			name string
			page []byte
		}{{fmt.Sprintf("%dD-%dcompact", dim, tree.leafCap), compact}, {fmt.Sprintf("%dD-%dfull", dim, pageBytes/tree.leafEntrySize), full}} {
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
// a two-shape table. The decoder returns a typed BadPageError, or a packed
// node that every accessor reads without panicking and whose edit form
// re-encodes to the bytes the page uses: the level, the count and the
// entries, less
// the pad word of an intermediate entry, which nothing reads and encodeNode
// zeroes — and less the CFBs of a full U-tree entry that names a shape, as a
// UTR4 file's do, which is rewritten compact.
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
			_, mixed, utr4 := leafPages(f, tree)
			f.Add(uint8(i), true, mixed)
			f.Add(uint8(i), true, utr4)
			// Full entries counted to a compact leaf's capacity overrun the
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
		if err != nil {
			var bad *pagefile.BadPageError
			if !errors.As(err, &bad) || bad.Page != 9 {
				t.Fatalf("decode error is not a BadPageError for page 9: %v", err)
			}
			return
		}
		for i := 0; i < p.count; i++ {
			if !p.leaf() {
				_ = p.child(i)
				if got := len(p.boxes(i)); got != tree.innerBoxes() {
					t.Fatalf("entry %d has %d boxes, want %d", i, got, tree.innerBoxes())
				}
				continue
			}
			_, _ = p.id(i), p.mbr(i)
			_, _ = p.addr(i)
			if tree.kind == UPCR {
				_ = p.boxes(i)
			} else if p.compact(i) {
				continue
			} else if out, in := p.cfbs(i); len(out) != 4*tree.dim || len(in) != 4*tree.dim {
				t.Fatalf("entry %d CFBs hold %d and %d coefficients", i, len(out), len(in))
			}
		}
		again := make([]byte, pagefile.PageSize)
		if err := tree.encodeNode(tree.expand(p, tree.shapes), again); err != nil {
			t.Fatal(err)
		}
		want := make([]byte, pagefile.PageSize)
		want[0] = page[0]
		copy(want[2:4], page[2:4])
		for i, from, to := 0, nodeHeader, nodeHeader; i < p.count; i++ {
			sz, keep := tree.innerEntrySize, tree.innerEntrySize
			compact := false
			if p.leaf() {
				_, ref := p.addr(i)
				compact = tree.kind == UTree && ref != 0
			}
			switch {
			case p.leaf() && p.compact(i):
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
// ErrBadSlot / ErrCorruptPDF or a record inside the page whose decoded pdf
// has an MBR and re-encodes to the record's bytes — never panic; and as a
// record, appended after slot%8 others, which must read back byte-equal
// from the append cache, from the store and from its page, or be refused
// when it is empty or does not fit a page.
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
	df := pagefile.NewDataFile(pagefile.NewMemStore())
	var addr pagefile.DataAddr
	add := func(o Object, ref uint16, table []shape) {
		rec, err := encodeObject(o, ref, table)
		if err != nil {
			f.Fatal(err)
		}
		if addr, err = df.Append(rec); err != nil {
			f.Fatal(err)
		}
		f.Add(rec, addr.Slot)
	}
	for i, p := range pdfs {
		add(Object{ID: int64(i) + 100, PDF: p}, 0, nil)
	}
	for _, table := range tables {
		for ref, sh := range table {
			ctr := make(geom.Point, sh.pdf.Dim())
			for i := range ctr {
				ctr[i] = float64(7 * (i + 1))
			}
			add(Object{ID: int64(200 + ref), PDF: sh.pdf.(updf.Recentrer).Recentred(ctr)}, uint16(ref+1), table)
		}
	}
	nrec := len(pdfs) + 4
	if err := df.Flush(); err != nil {
		f.Fatal(err)
	}
	page, err := df.ReadPage(addr.Page) // every seed record is on it
	if err != nil {
		f.Fatal(err)
	}
	for slot := uint16(0); slot <= uint16(nrec); slot++ {
		f.Add(page, slot)
	}
	f.Add(page[:40], uint16(3))                     // slot table cut short
	f.Add([]byte{0xFF, 0xFF, 0, 0}, uint16(0xFFFE)) // count beyond the page
	f.Add([]byte{}, uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, slot uint16) {
		full := make([]byte, pagefile.PageSize)
		copy(full, data)
		for _, page := range [][]byte{data, full} {
			rec, err := pagefile.RecordFromPage(page, slot)
			if err != nil {
				if !errors.Is(err, pagefile.ErrBadSlot) {
					t.Fatalf("slot %d of a %d-byte page: %v, want ErrBadSlot", slot, len(page), err)
				}
				continue
			}
			if len(rec) == 0 || len(rec) > len(page) {
				t.Fatalf("slot %d of a %d-byte page: a %d-byte record", slot, len(page), len(rec))
			}
			for _, table := range tables {
				o, err := decodeObject(rec, table)
				if err != nil {
					if !errors.Is(err, updf.ErrCorruptPDF) {
						t.Fatalf("record %x: %v, want ErrCorruptPDF", rec, err)
					}
					continue
				}
				_ = o.PDF.MBR()
				var ref uint16
				if rec[8] == keyedTag {
					ref = binary.LittleEndian.Uint16(rec[9:])
				}
				if again, err := encodeObject(o, ref, table); err != nil || !bytes.Equal(again, rec) {
					t.Fatalf("record %x decodes and re-encodes to %x (%v)", rec, again, err)
				}
			}
		}

		df := pagefile.NewDataFile(pagefile.NewMemStore())
		for i := 0; i < int(slot%8); i++ {
			if _, err := df.Append([]byte{byte(i), 1, 2, 3}); err != nil {
				t.Fatal(err)
			}
		}
		addr, err := df.Append(data)
		if fits := len(data) > 0 && 4+4+len(data) <= pagefile.PageSize; !fits {
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
		rec, err := df.Read(addr)
		check("from the append cache", rec, err)
		if err := df.Flush(); err != nil {
			t.Fatal(err)
		}
		df.SetCurrent(pagefile.InvalidPage) // drop the cache: reads go to the store
		rec, err = df.Read(addr)
		check("from the store", rec, err)
		page, err := df.ReadPage(addr.Page)
		if err == nil {
			rec, err = pagefile.RecordFromPage(page, addr.Slot)
		}
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
		table = append(table, newShape(p, enc, cat))
	}
	return table
}

// TestWritersLeaveCachedNodesAlone: the writers edit nodes they decode
// privately, never a packed node the cache shares with lock-free readers.
// Copies of every node the cache held, taken after queries filled it, still
// equal those nodes after inserts with splits, deletes with condensing and
// rolled-back write batches.
func TestWritersLeaveCachedNodesAlone(t *testing.T) {
	for _, kind := range []Kind{UTree, UPCR} {
		tree, err := New(Options{Dim: 2, Kind: kind})
		if err != nil {
			t.Fatal(err)
		}
		objs := makeObjects(1200, 2000, rand.New(rand.NewSource(41)))
		type slabCopy struct {
			keys []uint64
			f64  []float64
			f32  []float32
		}
		held := map[*packedNode]slabCopy{}
		// fill queries everything, then copies what the cache holds.
		fill := func() {
			t.Helper()
			if _, _, err := rangeQuery(tree, Query{Rect: geom.NewRect(geom.Point{0, 0}, geom.Point{2100, 2100}), Prob: 0.3}); err != nil {
				t.Fatal(err)
			}
			for i := range tree.ncache.shards {
				s := &tree.ncache.shards[i]
				for _, el := range s.entries {
					p := el.Value.(*ncEntry).n
					if _, ok := held[p]; !ok {
						held[p] = slabCopy{slices.Clone(p.keys), slices.Clone(p.f64), slices.Clone(p.f32)}
					}
				}
			}
		}
		for _, o := range objs[:600] {
			if _, err := tree.Insert(o); err != nil {
				t.Fatal(err)
			}
		}
		fill()
		for i, o := range objs[600:] { // splits
			if _, err := tree.Insert(o); err != nil {
				t.Fatal(err)
			}
			if i%100 == 99 {
				fill()
			}
		}
		for i, o := range objs[:900] { // condensing
			if err := tree.Delete(o.ID, o.PDF.MBR()); err != nil {
				t.Fatal(err)
			}
			if i%100 == 99 {
				fill()
			}
		}
		for _, o := range objs[:300] { // a batch rolled back
			if _, err := tree.Insert(o); err != nil {
				t.Fatal(err)
			}
		}
		if err := tree.Rollback(); err != nil {
			t.Fatal(err)
		}
		for _, o := range objs[900:] {
			if err := tree.Delete(o.ID, o.PDF.MBR()); err != nil {
				t.Fatal(err)
			}
		}
		if err := tree.Rollback(); err != nil {
			t.Fatal(err)
		}
		fill()
		if len(held) < 50 {
			t.Fatalf("%v: the cache held only %d nodes", kind, len(held))
		}
		for p, c := range held {
			if !slices.Equal(p.keys, c.keys) || !cfbEqual(p.f32, c.f32) || len(p.f64) != len(c.f64) {
				t.Fatalf("%v: cached node %d changed", kind, p.page)
			}
			for k := range p.f64 {
				if math.Float64bits(p.f64[k]) != math.Float64bits(c.f64[k]) {
					t.Fatalf("%v: cached node %d changed", kind, p.page)
				}
			}
			for k := range p.rects {
				if !p.rects[k].Equal(p.rect(k)) {
					t.Fatalf("%v: cached node %d: rectangle %d moved off its slab", kind, p.page, k)
				}
			}
		}
	}
}

// TestEncodeNodeRejectsOverfull: one entry beyond a page of full entries,
// of compact ones, and a full page of compact entries with one turned full.
func TestEncodeNodeRejectsOverfull(t *testing.T) {
	tree := keyedTree(t, Options{Dim: 2})
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		n      int
		keyed  func(i int) bool
		fitsAt int // entries that still fit
	}{
		{37, func(int) bool { return false }, 36},
		{86, func(int) bool { return true }, 85},
		{85, func(i int) bool { return i > 0 }, 84},
	} {
		n := &node{page: 1, level: 0}
		for i := 0; i < c.n; i++ {
			n.entries = append(n.entries, randLeafEntry(rng, tree, c.keyed(i)))
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
		t.Errorf("entry struct is %d bytes, want 176: 168 with its shape reference, and a pointer to the shape's fit", sz)
	}
	// d=2 U-tree: id(8)+addr(6)+shape(2)+MBR(32)+CFBs(16 float32 = 64) = 112.
	leaf, inner := entrySizes(UTree, 2, 15)
	if leaf != 112 {
		t.Errorf("U-tree 2D leaf entry = %d B, want 112", leaf)
	}
	if inner != 8+64 {
		t.Errorf("U-tree 2D inner entry = %d B, want 72", inner)
	}
	// d=3 U-tree: CFBs are 24 float32.
	leaf3, inner3 := entrySizes(UTree, 3, 15)
	if leaf3 != 16+48+96 {
		t.Errorf("U-tree 3D leaf entry = %d B, want 160", leaf3)
	}
	if inner3 != 8+96 {
		t.Errorf("U-tree 3D inner entry = %d B, want 104", inner3)
	}
	// Full entries fill a page at 36 (2-D) and 25 (3-D), compact ones —
	// id(8)+addr(6)+shape(2)+MBR, 48 and 64 B — at 85 and 63, which is
	// what Fanout reports.
	for _, c := range []struct{ dim, leaf, compact, inner int }{{2, 36, 85, 56}, {3, 25, 63, 39}} {
		if lc, ic := capacities(UTree, c.dim, 15); lc != c.leaf || ic != c.inner {
			t.Errorf("U-tree %dD capacities = %d/%d, want %d/%d", c.dim, lc, ic, c.leaf, c.inner)
		}
		tree, err := New(Options{Dim: c.dim})
		if err != nil {
			t.Fatal(err)
		}
		if lc, ic := tree.Fanout(); lc != c.compact || ic != c.inner || compactSize(c.dim) != 16+16*c.dim {
			t.Errorf("U-tree %dD fan-out = %d/%d, want %d/%d", c.dim, lc, ic, c.compact, c.inner)
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
