package core

import (
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/pagefile"
	"repro/internal/pcr"
	"repro/internal/updf"
)

// damageRecord edits the stored copy of the sealed data page that holds addr.
// The tree itself can no longer write such a page, so the write goes to the
// store directly, the way bit rot would without asking. edit gets the page
// and the offset of the record's slot-table entry (offset, length: two
// bytes each).
func damageRecord(t *testing.T, tree *Tree, addr pagefile.DataAddr, edit func(page []byte, slotEntry int)) {
	t.Helper()
	page := make([]byte, pagefile.PageSize)
	if err := tree.data.ReadPageInto(addr.Page, page); err != nil {
		t.Fatal(err)
	}
	edit(page, 4+4*int(addr.Slot))
	if err := tree.store.Write(addr.Page, page); err != nil {
		t.Fatal(err)
	}
}

// recordDamage is the damage both record-error tests below inflict, by the
// error the query must then report.
var recordDamage = map[string]struct {
	edit  func(page []byte, slotEntry int)
	cause error
}{
	// RecordFromPage fails: the slot's length is zero, as in a file whose
	// writer still tombstoned deleted records, with a leaf entry pointing at
	// it all the same.
	"tombstoned slot": {cause: pagefile.ErrBadSlot, edit: func(page []byte, slotEntry int) {
		binary.LittleEndian.PutUint16(page[slotEntry+2:], 0)
	}},
	// decodeObject fails: the record's pdf type tag is overwritten.
	"unknown pdf tag": {cause: updf.ErrCorruptPDF, edit: func(page []byte, slotEntry int) {
		off := binary.LittleEndian.Uint16(page[slotEntry:])
		page[off+8] = 0xEE // the byte after the 8-byte object id
	}},
}

// TestRefinementRecordErrorKeepsPartialResults: a candidate whose record
// cannot be read or decoded ends the query like a cancellation does — the
// error, the answers gathered so far and the stats closed over the work
// done — not with the answers thrown away.
func TestRefinementRecordErrorKeepsPartialResults(t *testing.T) {
	for name, tc := range recordDamage {
		t.Run(name, func(t *testing.T) {
			objs := makeObjects(2000, 400, rand.New(rand.NewSource(5)))
			tree := buildTree(t, UTree, objs, 9)
			// One more record, so that no damaged page below is the data
			// file's cached append page.
			far := Object{ID: 9999, PDF: updf.NewUniformBall(geom.Point{5000, 5000}, 1)}
			for i := 0; i < 200; i++ {
				far.ID++
				if err := tree.Insert(far); err != nil {
					t.Fatal(err)
				}
			}
			q := Query{Rect: geom.NewRect(geom.Point{120, 130}, geom.Point{290, 270}), Prob: 0.2}
			want, wantStats, err := rangeQuery(tree, q)
			if err != nil {
				t.Fatal(err)
			}

			// Refinement visits the candidates — what the stored faces leave
			// undecided — in (page, slot) order and reads the record of
			// those their shape leaves undecided too: damage the record of
			// the median one among those that are answers.
			snap := tree.Snapshot()
			defer snap.Close()
			answers := map[int64]bool{}
			for _, r := range want {
				answers[r.ID] = true
			}
			var cands []candidate
			if err := tree.walk(snap.st.rootPage, snap.st.rootLevel, func(n *node) error {
				for i := range n.entries {
					e := &n.entries[i]
					var f pcr.Faces
					if n.leaf() && answers[e.id] && e.faces(&f) && f.Filter(tree.cat, e.mbr, q.Rect, q.Prob) == pcr.Unknown &&
						shapeOutcome(snap.st, tree.qcache, e, q) == pcr.Unknown {
						cands = append(cands, candidate{id: e.id, addr: e.addr})
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(cands) < 5 {
				t.Fatalf("fixture refines %d answers, want a handful", len(cands))
			}
			sort.Slice(cands, func(a, b int) bool {
				x, y := cands[a].addr, cands[b].addr
				return x.Page < y.Page || x.Page == y.Page && x.Slot < y.Slot
			})
			victim := cands[len(cands)/2]
			damageRecord(t, tree, victim.addr, tc.edit)

			got, stats, err := snap.RangeQuery(context.Background(), q, QueryOpts{})
			if !errors.Is(err, tc.cause) || !strings.Contains(err.Error(), "core: refining object") {
				t.Fatalf("err = %v, want %v wrapped by the refinement stage", err, tc.cause)
			}
			// The answers so far: a proper prefix of the full answer that
			// stops before the damaged object and holds at least everything
			// the leaf filter validated.
			if len(got) == 0 || len(got) >= len(want) || len(got) < wantStats.Validated {
				t.Fatalf("%d partial results of %d (%d validated at the leaves)", len(got), len(want), wantStats.Validated)
			}
			for i, r := range got {
				if r != want[i] {
					t.Fatalf("partial result %d = %+v, full answer has %+v", i, r, want[i])
				}
				if r.ID == victim.id {
					t.Fatalf("the damaged object %d was reported", r.ID)
				}
			}
			// The stats are closed over the work done.
			if stats.Results != len(got) {
				t.Errorf("Results = %d, %d returned", stats.Results, len(got))
			}
			if stats.RefineTime <= 0 {
				t.Errorf("RefineTime = %v", stats.RefineTime)
			}
			if stats.NodeCacheHits+stats.NodeCacheMisses != stats.NodeAccesses {
				t.Errorf("node cache outcomes %d+%d, %d node accesses", stats.NodeCacheHits, stats.NodeCacheMisses, stats.NodeAccesses)
			}
			if stats.NodeAccesses != wantStats.NodeAccesses || stats.Candidates != wantStats.Candidates || stats.Validated != wantStats.Validated {
				t.Errorf("filter stage stats %+v, undamaged %+v", stats, wantStats)
			}
			if done := stats.MarginalValidated + stats.MarginalPruned + stats.ProbComputations; done == 0 || done >= stats.Candidates {
				t.Errorf("%d of %d candidates decided before the error", done, stats.Candidates)
			}
		})
	}
}

// shapeOutcome is what rangeQuery's leaf makes of an entry the stored faces
// left undecided.
func shapeOutcome(st *treeState, qc *pcr.QuantileCache, e *entry, q Query) pcr.Outcome {
	if e.shape == 0 {
		return pcr.Unknown
	}
	sh := st.shapes[e.shape-1]
	return pcr.FilterShape(sh.pdf, sh.mbr, e.mbr, q.Rect, q.Prob, qc)
}

// TestNNRecordErrorKeepsPartialNeighbours: the k-NN traversal ends on a
// record it cannot read or decode the way it ends on a cancellation — the
// error, wrapped with the object it was refining, the admissible neighbours
// found so far and the stats closed over the work done.
func TestNNRecordErrorKeepsPartialNeighbours(t *testing.T) {
	for name, tc := range recordDamage {
		t.Run(name, func(t *testing.T) {
			objs := makeObjects(600, 400, rand.New(rand.NewSource(6)))
			tree := bulkTree(t, Options{Dim: 2, MCSamples: 200, NodeCacheEntries: 8}, objs)
			// One more record elsewhere, so that no damaged page below is the
			// data file's cached append page.
			if err := tree.Insert(Object{ID: 9999, PDF: updf.NewUniformBall(geom.Point{5000, 5000}, 1)}); err != nil {
				t.Fatal(err)
			}
			q, k := geom.Point{210, 190}, 12
			want, wantStats, err := nearestNeighbors(tree, q, k)
			if err != nil || len(want) != k {
				t.Fatalf("fixture: %d neighbours, err %v", len(want), err)
			}
			// The fifth-nearest object is refined after the four before it
			// and cannot be skipped: the traversal must meet its record.
			victim := want[4].ID
			var addr pagefile.DataAddr
			if err := tree.walk(tree.rootPage, tree.rootLevel, func(n *node) error {
				for i := range n.entries {
					if n.leaf() && n.entries[i].id == victim {
						addr = n.entries[i].addr
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			snap := tree.Snapshot()
			defer snap.Close()
			damageRecord(t, tree, addr, tc.edit)

			got, stats, err := snap.NearestNeighbors(context.Background(), q, k, QueryOpts{})
			if !errors.Is(err, tc.cause) || !strings.Contains(err.Error(), "core: refining object") {
				t.Fatalf("err = %v, want %v wrapped by the refinement stage", err, tc.cause)
			}
			if len(got) == 0 || len(got) >= k {
				t.Fatalf("%d partial neighbours of %d", len(got), k)
			}
			full := map[int64]float64{}
			for _, n := range want {
				full[n.ID] = n.ExpectedDist
			}
			for i, n := range got {
				if n.ID == victim {
					t.Fatalf("the damaged object %d was reported", victim)
				}
				if i > 0 && got[i-1].ExpectedDist > n.ExpectedDist {
					t.Fatalf("partial neighbours out of order: %v", got)
				}
				// Whatever it had integrated is integrated right; the nearest
				// of them belong to the full answer.
				if d, ok := full[n.ID]; ok && d != n.ExpectedDist {
					t.Fatalf("neighbour %d at distance %v, undamaged %v", n.ID, n.ExpectedDist, d)
				}
			}
			if stats.DistanceComps == 0 || stats.DistanceComps >= wantStats.DistanceComps || stats.NodeAccesses == 0 || stats.RefinementIOs == 0 {
				t.Errorf("stats of the work done: %+v (undamaged %+v)", stats, wantStats)
			}
			if stats.NodeCacheHits+stats.NodeCacheMisses != stats.NodeAccesses {
				t.Errorf("node cache outcomes %d+%d, %d node accesses", stats.NodeCacheHits, stats.NodeCacheMisses, stats.NodeAccesses)
			}
		})
	}
}

// TestQuantileCacheTabulatesShapesOnly: a 2-D Con-Gau ball's marginal CDF
// is a quadrature rule, so refinement reads it from a per-shape table —
// 513 knots, 511 CDF evaluations to build, kept for the life of the tree.
// Objects of per-object radii are shapes of their own: the table keys 112
// of these 800 and the rest are unkeyed, and a table built for one of them
// served one object and was never freed (on 2,000 such objects 400 queries
// took 902 ms and kept 3.46 MB where evaluating their CDFs took 67.5 ms and
// 0.26 MB). Only
// keyed candidates read tables now — at most one per table shape and
// dimension — and every answer is still Equation 2's: a refined
// probability is PDF.ExactProb to the bit, a validated object's reaches
// the threshold, and no object whose ExactProb does is missing.
func TestQuantileCacheTabulatesShapesOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	objs := make([]Object, 800)
	for i := range objs {
		r := 50 + 200*rng.Float64()
		objs[i] = Object{ID: int64(i), PDF: updf.NewConGauBall(geom.Point{rng.Float64() * 10000, rng.Float64() * 10000}, r, r/2)}
	}
	tree, err := New(Options{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.BulkLoad(objs); err != nil {
		t.Fatal(err)
	}
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := len(tree.shapes); n < 50 || n > 1000 {
		t.Fatalf("fixture: %d shapes in the table, want some objects keyed and most not", n)
	}
	computed := 0
	for q := 0; q < 400; q++ {
		lo := geom.Point{rng.Float64() * 9500, rng.Float64() * 9500}
		side := 100 + 400*rng.Float64()
		query := Query{Rect: geom.NewRect(lo, geom.Point{lo[0] + side, lo[1] + side}), Prob: 0.05 + 0.9*rng.Float64()}
		got, st, err := rangeQuery(tree, query)
		if err != nil {
			t.Fatal(err)
		}
		computed += st.ProbComputations
		in := map[int64]Result{}
		for _, r := range got {
			in[r.ID] = r
		}
		for _, o := range objs {
			if !o.PDF.MBR().Intersects(query.Rect) {
				if _, ok := in[o.ID]; ok {
					t.Fatalf("query %d: object %d answered, its region misses the query", q, o.ID)
				}
				continue
			}
			p := o.PDF.ExactProb(query.Rect)
			r, ok := in[o.ID]
			switch {
			case ok && r.Prob >= 0 && r.Prob != p:
				t.Fatalf("query %d: object %d refined to %v, ExactProb %v", q, o.ID, r.Prob, p)
			case ok && r.Prob < 0 && p < query.Prob-1e-9:
				t.Fatalf("query %d: object %d validated, ExactProb %v < %v", q, o.ID, p, query.Prob)
			case !ok && p >= query.Prob+1e-9:
				t.Fatalf("query %d: object %d missing, ExactProb %v ≥ %v", q, o.ID, p, query.Prob)
			}
		}
	}
	if computed == 0 {
		t.Fatal("no candidate was refined: the probe checks nothing")
	}
	if tables, max := tree.qcache.Tables(), 2*len(tree.shapes); tables > max {
		t.Fatalf("%d CDF tables for %d shapes: refinement tabulated unkeyed objects", tables, len(tree.shapes))
	}
}
