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

// TestRefinementRecordErrorKeepsPartialResults: a candidate whose record
// cannot be read or decoded ends the query like a cancellation or a spent
// budget does — the error, the answers gathered so far and the stats closed
// over the work done — not with the answers thrown away.
func TestRefinementRecordErrorKeepsPartialResults(t *testing.T) {
	for name, tc := range map[string]struct {
		damage func(t *testing.T, tree *Tree, addr pagefile.DataAddr)
		cause  error
	}{
		// RecordFromPage fails: the slot is tombstoned under the index.
		"tombstoned slot": {cause: pagefile.ErrBadSlot, damage: func(t *testing.T, tree *Tree, addr pagefile.DataAddr) {
			if err := tree.data.Delete(addr); err != nil {
				t.Fatal(err)
			}
		}},
		// decodeObject fails: the record's pdf type tag is overwritten.
		"unknown pdf tag": {cause: updf.ErrCorruptPDF, damage: func(t *testing.T, tree *Tree, addr pagefile.DataAddr) {
			page, err := tree.data.ReadPage(addr.Page)
			if err != nil {
				t.Fatal(err)
			}
			buf := append([]byte(nil), page...)
			off := binary.LittleEndian.Uint16(buf[4+4*int(addr.Slot):]) // slot table entry: offset, length
			buf[off+8] = 0xEE                                           // the byte after the 8-byte object id
			if err := tree.store.Write(addr.Page, buf); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(name, func(t *testing.T) {
			objs := makeObjects(600, 400, rand.New(rand.NewSource(5)))
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
			q := Query{Rect: geom.NewRect(geom.Point{120, 130}, geom.Point{290, 270}), Prob: 0.4}
			want, wantStats, err := rangeQuery(tree, q)
			if err != nil {
				t.Fatal(err)
			}

			// Refinement visits the candidates — what the leaf filter leaves
			// undecided — in (page, slot) order: damage the record of the
			// median one among those that are answers.
			snap := tree.Snapshot()
			defer snap.Close()
			answers := map[int64]bool{}
			for _, r := range want {
				answers[r.ID] = true
			}
			var cands []candidate
			if err := tree.walk(snap.st.rootPage, func(n *node) error {
				for i := range n.entries {
					e := &n.entries[i]
					if n.leaf() && answers[e.id] && pcr.FilterCFB(e.out, e.in, tree.cat, e.mbr, q.Rect, q.Prob) == pcr.Unknown {
						cands = append(cands, candidate{e.id, e.addr})
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
			tc.damage(t, tree, victim.addr)

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
