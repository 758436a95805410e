package core

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/geom"
	"repro/internal/pagefile"
	"repro/internal/updf"
)

// descentLevels are the thresholds the quantile test is most exposed at:
// every level (pcr.Catalog.Level) and its neighbours 1 ulp either side,
// within (0, 1].
func (t *Tree) descentLevels() []float64 {
	var out []float64
	for k := range 2 * t.cat.Size() {
		l := t.cat.Level(k)
		for _, pq := range []float64{math.Nextafter(l, 0), l, math.Nextafter(l, 2)} {
			if pq > 0 && pq <= 1 {
				out = append(out, pq)
			}
		}
	}
	return out
}

// descent replays rangeQuery's descent over st for q without reading a
// record: the IDs in the leaves it visits, its node accesses and the
// subtrees the quantile test cut. Without quantiles it descends on
// Observation 4 alone, as before the quantile test.
func (t *Tree) descent(st *treeState, q Query, quantiles bool) (ids map[int64]bool, nodes, pruned int, err error) {
	ids = make(map[int64]bool)
	var up, down []float64
	if quantiles {
		up, down = t.quantileBounds(st, q.Prob)
	}
	j, _ := t.cat.LargestLE(q.Prob)
	var walk func(page pagefile.PageID, level int) error
	walk = func(page pagefile.PageID, level int) error {
		n, err := t.readCommitted(page, level)
		if err != nil {
			return err
		}
		nodes++
		for i := 0; i < n.count; i++ {
			switch {
			case n.leaf():
				ids[n.id(i)] = true
			case !t.innerMeets(n, i, q.Rect, j):
			case up != nil && !innerReaches(n, i, q.Rect, up, down):
				pruned++
			default:
				if err := walk(n.child(i), level-1); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return ids, nodes, pruned, walk(st.rootPage, st.rootLevel)
}

// descentFamilies are the keyed families TestQuantileDescentSound builds
// trees of.
var descentFamilies = []string{"uniform-ball", "con-gau", "uniform-rect", "gauss-rect", "expo-rect", "polygon"}

// descentObjects draws n objects of two shapes of family in d dimensions,
// their centres within span of base. Rectangles lie on a lattice of 2⁻¹⁰
// and polygons on one of sixes, where every translate's ShapeKey comes out
// its shape's; a ball's is its radius wherever it lies.
func descentObjects(family string, d, n int, base geom.Point, span float64, rng *rand.Rand) []Object {
	objs := make([]Object, n)
	for k := range objs {
		scale := []float64{10, 25}[k%2]
		c := make(geom.Point, d)
		for i := range c {
			c[i] = math.Round((base[i]+(rng.Float64()-0.5)*span)*1024) / 1024
		}
		box := geom.Rect{Lo: make(geom.Point, d), Hi: make(geom.Point, d)}
		mu, sigma, rate := make(geom.Point, d), make([]float64, d), make([]float64, d)
		for i := range c {
			h := scale * (1 + 0.25*float64(i))
			box.Lo[i], box.Hi[i] = c[i]-h, c[i]+h
			mu[i], sigma[i], rate[i] = c[i]+h/4, h*0.75, 1.5/h
		}
		var p updf.PDF
		switch family {
		case "uniform-ball":
			p = updf.NewUniformBall(c, scale)
		case "con-gau":
			p = updf.NewConGauBall(c, scale, scale/2)
		case "uniform-rect":
			p = updf.NewUniformRect(box)
		case "gauss-rect":
			p = updf.NewGaussRect(box, mu, sigma)
		case "expo-rect":
			p = updf.NewExpoRect(box, rate)
		default:
			a, b, h := 3*scale, 1.2*scale, 1.8*scale
			x, y := 6*math.Round(c[0]/6)+0, 6*math.Round(c[1]/6)+0
			p = updf.NewUniformPolygon([]geom.Point{{x + a, y}, {x + b, y + h}, {x - b, y + h}, {x - a, y}, {x - b, y - h}, {x + b, y - h}})
		}
		objs[k] = Object{ID: int64(k), PDF: p}
	}
	return objs
}

// descentQueries draws queries at the thresholds of levels and at random
// ones: random boxes over the data, and boxes around all of it but for one
// face, set 1 ulp inside the quantile an extreme object needs to reach pq
// there — where that object's probability is pq to within rounding, and
// its leaf's bound is at its tightest.
func descentQueries(objs []Object, levels []float64, n int, rng *rand.Rand) []Query {
	d := objs[0].PDF.Dim()
	all := objs[0].PDF.MBR().Clone()
	for _, o := range objs {
		all.UnionInPlace(o.PDF.MBR())
	}
	qs := make([]Query, n)
	for k := range qs {
		pq := levels[rng.Intn(len(levels))]
		if k%4 == 3 {
			pq = 1 - rng.Float64()
		}
		rq := geom.Rect{Lo: make(geom.Point, d), Hi: make(geom.Point, d)}
		if k%2 == 0 {
			for i := range d {
				c, h := all.Lo[i]+rng.Float64()*all.Side(i), (0.02+0.5*rng.Float64())*all.Side(i)
				rq.Lo[i], rq.Hi[i] = c-h, c+h
			}
			qs[k] = Query{Rect: rq, Prob: pq}
			continue
		}
		for i := range d {
			rq.Lo[i], rq.Hi[i] = all.Lo[i]-1, all.Hi[i]+1
		}
		i, high := rng.Intn(d), rng.Intn(2) == 1
		// The object whose quantile is the face's extreme: the highest at
		// 1 − pq for a low face, the lowest at pq for a high one.
		best := math.NaN()
		for _, o := range objs {
			if high {
				if v := updf.MarginalQuantile(o.PDF, i, pq); !(v >= best) {
					best = v
				}
			} else if v := updf.MarginalQuantile(o.PDF, i, 1-pq); !(v <= best) {
				best = v
			}
		}
		if high {
			rq.Hi[i] = math.Nextafter(best, math.Inf(1))
		} else {
			rq.Lo[i] = math.Nextafter(best, math.Inf(-1))
		}
		qs[k] = Query{Rect: rq, Prob: pq}
	}
	return qs
}

// TestQuantileDescentSound holds the descent's quantile test (entry.go) to
// its promise: it never cuts a subtree holding an object that reaches the
// threshold.
//
//   - levels: at every level and 1 ulp either side of it, the levels
//     QuantileLevels picks hold their bounds exactly: a ≥ 1 − pq, b ≤ pq.
//   - Trees of every keyed family (both balls, the three rectangles, the
//     polygon), 2-D and 3-D, of two shapes each, centres out to ±10⁷, bulk
//     loaded (a ball's entries centred) and inserted with every entry
//     compact: on queries at those thresholds, random boxes and boxes whose
//     one face sits 1 ulp inside an extreme object's quantile, every object
//     whose ExactProb reaches pq is in a leaf the descent visits and among
//     the results (and every result reaches pq less the leaf's validation
//     tolerance), and the replayed descent's counts are the query's. The
//     test cuts subtrees on every tree.
//   - unshaped: a tree holding one unkeyed entry descends exactly as
//     without the test, and once that entry is deleted it cuts subtrees —
//     across Commit, Rollback and a reopen; the count holds while a mixed
//     tree of height 3 is deleted down to one leaf, and a UTR4 file's full
//     entries all count.
func TestQuantileDescentSound(t *testing.T) {
	t.Run("levels", func(t *testing.T) {
		tree, err := New(Options{Dim: 2})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(57))
		pqs := tree.descentLevels()
		for range 1000 {
			pqs = append(pqs, 1-rng.Float64())
		}
		one := new(big.Rat).SetInt64(1)
		for _, pq := range pqs {
			a, b := tree.cat.QuantileLevels(pq)
			p := new(big.Rat).SetFloat64(pq)
			if new(big.Rat).SetFloat64(tree.cat.Level(a)).Cmp(new(big.Rat).Sub(one, p)) < 0 {
				t.Fatalf("pq %v: level a = %v is below 1 − pq", pq, tree.cat.Level(a))
			}
			if new(big.Rat).SetFloat64(tree.cat.Level(b)).Cmp(p) > 0 {
				t.Fatalf("pq %v: level b = %v is above pq", pq, tree.cat.Level(b))
			}
		}
	})

	objects, queries := 400, 120
	if testing.Short() {
		objects, queries = 300, 40
	}
	for fi, family := range descentFamilies {
		for _, d := range []int{2, 3} {
			if family == "polygon" && d == 3 {
				continue
			}
			for _, build := range []string{"bulk", "compact"} {
				t.Run(fmt.Sprintf("%s-%dd-%s", family, d, build), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(100*fi + 10*d + len(build))))
					mag := 1e7
					if family == "polygon" {
						mag = 1e4
					}
					base := make(geom.Point, d)
					for i := range base {
						base[i] = (2*rng.Float64() - 1) * math.Pow(mag, rng.Float64())
					}
					objs := descentObjects(family, d, objects, base, 600, rng)
					tree := descentTree(t, d, build, objs)
					st := tree.committed()
					if st.unshaped != 0 || len(st.shapes) != 2 {
						t.Fatalf("%d unshaped entries, %d shapes: want every object keyed, two shapes", st.unshaped, len(st.shapes))
					}
					pruned := 0
					for _, q := range descentQueries(objs, tree.descentLevels(), queries, rng) {
						ids, nodes, cut, err := tree.descent(st, q, true)
						if err != nil {
							t.Fatal(err)
						}
						res, stats, err := tree.rangeQuery(context.Background(), st, q, QueryOpts{})
						if err != nil {
							t.Fatal(err)
						}
						if stats.NodeAccesses != nodes || stats.QuantilePruned != cut {
							t.Fatalf("query %v: %d node accesses, %d cut; the replayed descent %d, %d",
								q, stats.NodeAccesses, stats.QuantilePruned, nodes, cut)
						}
						pruned += cut
						found := make(map[int64]bool, len(res))
						for _, r := range res {
							found[r.ID] = true
						}
						for _, o := range objs {
							p := o.PDF.ExactProb(q.Rect)
							if p >= q.Prob && !ids[o.ID] {
								t.Fatalf("query %v: object %d (%v) reaches pq with %v, its leaf is not visited", q, o.ID, o.PDF.ShapeKey(), p)
							}
							// A leaf validates at pq less catalogEps, on a
							// positive lower bound (pcr.decide).
							if p >= q.Prob && !found[o.ID] || found[o.ID] && (p < q.Prob-1e-12 || p == 0) {
								t.Fatalf("query %v: object %d has probability %v, among the results: %v", q, o.ID, p, found[o.ID])
							}
						}
					}
					if pruned == 0 {
						t.Fatal("the quantile test cut no subtree")
					}
				})
			}
		}
	}

	t.Run("unshaped", testQuantileDescentGate)
}

// descentTree builds a 2-level tree of objs: bulk-loaded, or inserted with
// every entry compact, as a file written before centre entries holds them.
func descentTree(t *testing.T, d int, build string, objs []Object) *Tree {
	t.Helper()
	tree, err := New(Options{Dim: d})
	if err != nil {
		t.Fatal(err)
	}
	if build == "bulk" {
		err = tree.BulkLoad(objs)
	} else {
		var entries []entry
		if entries, err = leafEntries(tree, objs); err != nil {
			t.Fatal(err)
		}
		for i := range entries {
			entries[i].ctr = nil
			if entries[i].addr, err = tree.appendRecord(objs[i], entries[i].shape); err != nil {
				t.Fatal(err)
			}
			if err = tree.insertEntry(entries[i], 0, make(map[int]bool)); err != nil {
				t.Fatal(err)
			}
			tree.journal(objs[i].ID)
			tree.dir.set(objs[i].ID, entries[i].addr)
		}
	}
	if err == nil {
		err = tree.Commit()
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tree.Height() < 2 {
		t.Fatalf("a tree of height %d has no intermediate entry", tree.Height())
	}
	return tree
}

// testQuantileDescentGate is TestQuantileDescentSound's unshaped case.
func testQuantileDescentGate(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	objs := descentObjects("uniform-ball", 2, 500, geom.Point{5000, 5000}, 1000, rng)
	var qs []Query
	for range 60 {
		c := geom.Point{4500 + 1000*rng.Float64(), 4500 + 1000*rng.Float64()}
		h := 20 + 200*rng.Float64()
		qs = append(qs, Query{Rect: geom.NewRect(geom.Point{c[0] - h, c[1] - h}, geom.Point{c[0] + h, c[1] + h}), Prob: 0.5 + 0.49*rng.Float64()})
	}
	unkeyed := Object{ID: 10_000, PDF: updf.NewMixture([]updf.PDF{updf.NewUniformBall(geom.Point{5000, 5000}, 8), updf.NewUniformRect(geom.NewRect(geom.Point{4990, 4990}, geom.Point{5020, 5010}))}, []float64{2, 1})}
	// counts sums the queries' node accesses on the committed epoch, and
	// what the quantile test cut, and the node accesses of a descent on
	// Observation 4 alone.
	counts := func(tree *Tree) (with, without, cut int) {
		t.Helper()
		snap := tree.Snapshot()
		defer snap.Close()
		for _, q := range qs {
			_, s, err := snap.RangeQuery(context.Background(), q, QueryOpts{})
			if err != nil {
				t.Fatal(err)
			}
			_, nodes, _, err := tree.descent(snap.st, q, false)
			if err != nil {
				t.Fatal(err)
			}
			with, without, cut = with+s.NodeAccesses, without+nodes, cut+s.QuantilePruned
		}
		return with, without, cut
	}
	expect := func(tree *Tree, step string, unshaped int) {
		t.Helper()
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if got := tree.committed().unshaped; got != unshaped {
			t.Fatalf("%s: %d unshaped entries committed, want %d", step, got, unshaped)
		}
		with, without, cut := counts(tree)
		switch {
		case unshaped > 0 && (with != without || cut != 0):
			t.Fatalf("%s: %d node accesses (%d cut) beside an unkeyed entry, %d without the quantile test", step, with, cut, without)
		case unshaped == 0 && (with >= without || cut == 0):
			t.Fatalf("%s: %d node accesses (%d cut) with every entry keyed, %d without the quantile test", step, with, cut, without)
		}
	}
	store := pagefile.NewMemStore()
	tree, err := New(Options{Dim: 2, Store: store, Persist: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.BulkLoad(append(objs[:len(objs):len(objs)], unkeyed)); err != nil {
		t.Fatal(err)
	}
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	expect(tree, "bulk-loaded", 1)
	reopen := func(step string) *Tree {
		t.Helper()
		again, _, err := Open(store, tree.MetaPage(), Options{})
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		return again
	}
	tree = reopen("reopened with the unkeyed entry")
	expect(tree, "reopened with the unkeyed entry", 1)

	if err := tree.Delete(unkeyed.ID); err != nil {
		t.Fatal(err)
	}
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	expect(tree, "deleted and committed", 0)
	if err := tree.Insert(unkeyed); err != nil {
		t.Fatal(err)
	}
	if tree.unshaped != 1 {
		t.Fatalf("an unkeyed insert leaves %d unshaped entries in the working tree, want 1", tree.unshaped)
	}
	if err := tree.Rollback(); err != nil {
		t.Fatal(err)
	}
	expect(tree, "inserted and rolled back", 0)
	tree = reopen("reopened without it")
	expect(tree, "reopened without it", 0)

	if err := tree.Insert(unkeyed); err != nil {
		t.Fatal(err)
	}
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	expect(tree, "inserted and committed", 1)

	// A tree of height 3, a third of it unkeyed, emptied down to one leaf:
	// condense frees leaves, reinserts their entries and orphaned subtrees
	// and collapses the root, and the count follows.
	rng = rand.New(rand.NewSource(59))
	mixed := mixedObjects(9000, 2, 5000, 0, false, rng)
	big, err := New(Options{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := big.BulkLoad(mixed); err != nil {
		t.Fatal(err)
	}
	if big.Height() < 3 {
		t.Fatalf("height %d, want 3", big.Height())
	}
	for k, i := range rng.Perm(len(mixed))[:len(mixed)-10] {
		if err := big.Delete(mixed[i].ID); err != nil {
			t.Fatal(err)
		}
		if k%500 == 0 {
			if err := big.CheckInvariants(); err != nil {
				t.Fatalf("after %d deletes: %v", k+1, err)
			}
		}
	}
	if err := big.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := big.CheckInvariants(); err != nil {
		t.Fatalf("emptied to %d objects: %v", big.Len(), err)
	}

	// A file from before compact entries stores every keyed entry full:
	// each counts, and the test stays off.
	path := filepath.Join(t.TempDir(), "utr4.idx")
	copyFile(t, "testdata/utr4.idx", path)
	fs, err := pagefile.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	var golden utr4Golden
	if b, err := os.ReadFile("testdata/utr4.golden.json"); err != nil || json.Unmarshal(b, &golden) != nil {
		t.Fatalf("reading the fixture's metadata page: %v", err)
	}
	old, _, err := Open(fs, pagefile.PageID(golden.Meta), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := old.committed().unshaped; got != old.Len() {
		t.Fatalf("a UTR4 file opens with %d of its %d entries unshaped, want all", got, old.Len())
	}
}
