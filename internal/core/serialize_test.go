package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/geom"
	"repro/internal/pagefile"
	"repro/internal/pcr"
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

// TestNodeSerializationRoundTripUTree encodes and decodes random U-tree
// nodes (leaf and intermediate) and demands bit-exact field recovery.
func TestNodeSerializationRoundTripUTree(t *testing.T) {
	for _, dim := range []int{1, 2, 3} {
		tree, err := New(Options{Dim: dim})
		if err != nil {
			t.Fatal(err)
		}
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			// Leaf node.
			leaf := &node{page: 12, level: 0}
			n := 1 + rng.Intn(tree.leafCap)
			for i := 0; i < n; i++ {
				leaf.entries = append(leaf.entries, entry{
					id:    rng.Int63(),
					addr:  pagefile.DataAddr{Page: pagefile.PageID(rng.Uint32()), Slot: uint16(rng.Intn(1 << 16))},
					shape: uint16(rng.Intn(1 << 16)),
					mbr:   randRectIn(rng, dim, 1000),
					out:   randCFB(rng, dim),
					in:    randCFB(rng, dim),
				})
			}
			// The ends of the reference's range, beside a full-range address.
			leaf.entries[0].shape, leaf.entries[n-1].shape = 0xFFFF, 0
			leaf.entries[0].addr = pagefile.DataAddr{Page: 0xFFFFFFFF, Slot: 0xFFFF}
			buf := make([]byte, pagefile.PageSize)
			if err := tree.encodeNode(leaf, buf); err != nil {
				return false
			}
			got, err := tree.decodeNode(12, buf)
			if err != nil || got.level != 0 || len(got.entries) != n {
				return false
			}
			for i := range leaf.entries {
				a, b := &leaf.entries[i], &got.entries[i]
				if a.id != b.id || a.addr != b.addr || a.shape != b.shape || !a.mbr.Equal(b.mbr) ||
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
			got2, err := tree.decodeNode(13, buf2)
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
				shape: uint16(rng.Intn(1 << 16)),
				mbr:   boxes[0].Clone(),
				pcrs:  boxes,
			})
		}
		leaf.entries[0].shape, leaf.entries[n-1].shape = 0xFFFF, 0
		buf := make([]byte, pagefile.PageSize)
		if err := tree.encodeNode(leaf, buf); err != nil {
			return false
		}
		got, err := tree.decodeNode(5, buf)
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
// tree, with random contents.
func fullNodePages(tb testing.TB, tree *Tree) (leaf, inner []byte) {
	rng := rand.New(rand.NewSource(4))
	ln := &node{page: 7, level: 0}
	for i := 0; i < tree.leafCap; i++ {
		e := entry{id: int64(i), mbr: randRectIn(rng, tree.dim, 1000)}
		if tree.kind == UTree {
			e.out, e.in = randCFB(rng, tree.dim), randCFB(rng, tree.dim)
		} else {
			e.pcrs = make([]geom.Rect, tree.cat.Size())
			for j := range e.pcrs {
				e.pcrs[j] = e.mbr
			}
		}
		ln.entries = append(ln.entries, e)
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

// TestDecodeNodeAllocations gates the slab decode: a full node of either
// level and either kind costs the node, its entries and two coordinate
// slabs, however many entries it holds (a 2-D U-tree leaf was 232
// allocations when every rectangle and coefficient array had its own).
func TestDecodeNodeAllocations(t *testing.T) {
	for _, opt := range []Options{{Dim: 2}, {Dim: 3}, {Dim: 2, Kind: UPCR}} {
		tree, err := New(opt)
		if err != nil {
			t.Fatal(err)
		}
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
	}
}

// BenchmarkDecodeLeaf decodes one full U-tree leaf page: what every
// decoded-node cache miss of a query pays per leaf visited.
func BenchmarkDecodeLeaf(b *testing.B) {
	for _, dim := range []int{2, 3} {
		tree, err := New(Options{Dim: dim})
		if err != nil {
			b.Fatal(err)
		}
		leaf, _ := fullNodePages(b, tree)
		b.Run(fmt.Sprintf("%dD-%dentries", dim, tree.leafCap), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tree.decodeNode(7, leaf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestEncodeNodeRejectsOverfull(t *testing.T) {
	tree, _ := New(Options{Dim: 2})
	n := &node{page: 1, level: 0}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i <= tree.leafCap; i++ { // one beyond capacity
		n.entries = append(n.entries, entry{
			id:  int64(i),
			mbr: randRectIn(rng, 2, 100),
			out: randCFB(rng, 2),
			in:  randCFB(rng, 2),
		})
	}
	buf := make([]byte, pagefile.PageSize)
	if err := tree.encodeNode(n, buf); err == nil {
		t.Fatal("overfull node serialized")
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
	if sz := unsafe.Sizeof(entry{}); sz != 168 {
		t.Errorf("entry struct is %d bytes, was 168 before it held a shape reference", sz)
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
	for _, c := range []struct{ dim, leaf, inner int }{{2, 36, 56}, {3, 25, 39}} {
		if lc, ic := capacities(UTree, c.dim, 15); lc != c.leaf || ic != c.inner {
			t.Errorf("U-tree %dD capacities = %d/%d, want %d/%d", c.dim, lc, ic, c.leaf, c.inner)
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
