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
// The tree itself can no longer write such a page, so the write goes in
// under a momentary exemption, the way bit rot would without asking. edit
// gets the page and the offset of the record's slot-table entry (offset,
// length: two bytes each).
func damageRecord(t *testing.T, tree *Tree, addr pagefile.DataAddr, edit func(page []byte, slotEntry int)) {
	t.Helper()
	page, err := tree.data.ReadPage(addr.Page)
	if err != nil {
		t.Fatal(err)
	}
	edit(page, 4+4*int(addr.Slot))
	tree.vs.MarkInPlace(addr.Page)
	defer tree.vs.UnmarkInPlace(addr.Page)
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
				if _, err := tree.Insert(far); err != nil {
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
			tree := bulkTree(t, Options{Dim: 2, MCSamples: 200, BufferPages: 4, NodeCacheEntries: 8}, objs)
			// One more record elsewhere, so that no damaged page below is the
			// data file's cached append page.
			if _, err := tree.Insert(Object{ID: 9999, PDF: updf.NewUniformBall(geom.Point{5000, 5000}, 1)}); err != nil {
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
