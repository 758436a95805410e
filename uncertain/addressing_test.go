package uncertain

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/pagefile"
	"repro/internal/pagefile/chaos"
)

// Tests of object addressing: an ID names one object in the whole index,
// Delete(id) is the only delete, and the ID directory behind it rolls back
// with the index and is rebuilt when a file is reopened.

// addressingIndexes builds one empty index of each shape: a Tree and a
// ShardedTree of four slabs over fixtureDomain.
func addressingIndexes(t *testing.T) map[string]Index {
	t.Helper()
	cfg := Config{Dimensions: 2}
	tree, err := NewTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewSpatialShardedTree(4, cfg, fixtureDomain)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		tree.Close()
		sharded.Close()
	})
	return map[string]Index{"tree": tree, "sharded": sharded}
}

// directoryMatchesLeaves checks the working tree under the writer lock:
// core's CheckInvariants holds the ID directory to exactly the leaves' IDs,
// each at its leaf entry's record address. An error of the walk itself (a
// store fault) is returned as it is.
func directoryMatchesLeaves(tr *Tree) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.inner.CheckInvariants()
}

// assertDirectory fails t unless the directory of idx (of every shard of a
// ShardedTree) matches its leaves. A walk that hits an injected store fault
// is re-issued.
func assertDirectory(t *testing.T, what string, idx Index) {
	t.Helper()
	trees := []*Tree{}
	switch x := idx.(type) {
	case *Tree:
		trees = append(trees, x)
	case *ShardedTree:
		trees = x.shards
	default:
		t.Fatalf("%s: no directory in a %T", what, idx)
	}
	for _, tr := range trees {
		untilAnswered(t, what+": directory", func() error { return directoryMatchesLeaves(tr) })
	}
}

// west and east lie in the first and the last of fixtureDomain's four slabs.
var (
	west = UniformCircle(Pt(100, 500), 10)
	east = UniformCircle(Pt(900, 500), 10)
)

// TestWriteBatchNotFoundRollsBack: Delete of an unknown ID inside a batch
// is ErrNotFound and leaves the batch usable; an fn that returns it rolls
// the whole batch back, the insert before it too, so the next mutation
// publishes only itself.
func TestWriteBatchNotFoundRollsBack(t *testing.T) {
	for name, idx := range addressingIndexes(t) {
		t.Run(name, func(t *testing.T) {
			if err := idx.Insert(1, west); err != nil {
				t.Fatal(err)
			}
			err := idx.WriteBatch(func(w BatchWriter) error {
				if err := w.Insert(2, west); err != nil {
					return err
				}
				return w.Delete(999)
			})
			if err == nil {
				t.Fatal("batch deleting an unknown ID succeeded")
			}
			if got := idx.Len(); got != 1 {
				t.Fatalf("failed batch left Len %d, want 1", got)
			}
			assertDirectory(t, "after the failed batch", idx)
			if err := idx.Insert(3, east); err != nil {
				t.Fatal(err)
			}
			if got := idx.Len(); got != 2 {
				t.Fatalf("Len %d after the next insert, want 2: the failed batch's insert was published with it", got)
			}
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("batch deleting an unknown ID: %v, want ErrNotFound", err)
			}
			if err := idx.Delete(2); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Delete of the rolled-back insert: %v, want ErrNotFound", err)
			}
			// Ignored, the error fails nothing: the rest of the batch commits.
			if err := idx.WriteBatch(func(w BatchWriter) error {
				if err := w.Delete(999); !errors.Is(err, ErrNotFound) {
					t.Errorf("batch Delete(999) = %v, want ErrNotFound", err)
				}
				return w.Insert(4, west)
			}); err != nil {
				t.Fatal(err)
			}
			if got := idx.Len(); got != 3 {
				t.Fatalf("Len %d after a batch that ignored ErrNotFound, want 3", got)
			}
			assertDirectory(t, "after the committed batch", idx)
			if err := idx.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDuplicateInsertRefused: Insert of a live ID is ErrDuplicateID and
// mutates nothing — on a ShardedTree also when the new pdf's MBR routes it
// to another slab than the live object's — inside a batch too, where it
// leaves the batch usable. One Delete then removes the one object.
func TestDuplicateInsertRefused(t *testing.T) {
	for name, idx := range addressingIndexes(t) {
		t.Run(name, func(t *testing.T) {
			if err := idx.Insert(1, west); err != nil {
				t.Fatal(err)
			}
			for _, p := range []PDF{west, east} {
				if err := idx.Insert(1, p); !errors.Is(err, ErrDuplicateID) {
					t.Fatalf("duplicate Insert(1, %v): %v, want ErrDuplicateID", p.MBR(), err)
				}
				if got := idx.Len(); got != 1 {
					t.Fatalf("Len %d after a refused duplicate, want 1", got)
				}
			}
			if err := idx.WriteBatch(func(w BatchWriter) error {
				if err := w.Insert(1, east); !errors.Is(err, ErrDuplicateID) {
					t.Errorf("batch Insert of a live ID: %v, want ErrDuplicateID", err)
				}
				if err := w.Insert(2, east); err != nil {
					return err
				}
				if err := w.Insert(2, west); !errors.Is(err, ErrDuplicateID) {
					t.Errorf("batch Insert of its own pending ID: %v, want ErrDuplicateID", err)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if got := idx.Len(); got != 2 {
				t.Fatalf("Len %d after the batch, want 2", got)
			}
			for _, id := range []int64{1, 2} {
				if err := idx.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
			if got := idx.Len(); got != 0 {
				t.Fatalf("Len %d after deleting both IDs, want 0: a duplicate entry survived", got)
			}
			if err := idx.Delete(1); !errors.Is(err, ErrNotFound) {
				t.Fatalf("second Delete(1): %v, want ErrNotFound", err)
			}
			if err := idx.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDeleteByIDAfterReopen: OpenTree rebuilds the ID directory from the
// leaves, so on a reopened file every object deletes by bare ID down to an
// empty, intact tree, and a live ID is refused as a duplicate.
func TestDeleteByIDAfterReopen(t *testing.T) {
	cfg := Config{Dimensions: 2, Path: filepath.Join(t.TempDir(), "reopen.utree")}
	built, err := NewTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	objects := shardedFixtureObjects(300, 13)
	if err := built.BulkLoad(objects); err != nil {
		t.Fatal(err)
	}
	extra := shardedFixtureObjects(340, 14)
	for id := int64(300); id < 340; id++ {
		objects[id] = extra[id]
		if err := built.Insert(id, extra[id]); err != nil {
			t.Fatal(err)
		}
	}
	for id := int64(0); id < 340; id += 7 {
		if err := built.Delete(id); err != nil {
			t.Fatal(err)
		}
		delete(objects, id)
	}
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}

	tree, err := OpenTree(cfg.Path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.Len(); got != len(objects) {
		t.Fatalf("reopened Len %d, want %d", got, len(objects))
	}
	assertDirectory(t, "reopened", tree)
	for id := range objects {
		if id == 1 {
			continue
		}
		if err := tree.Delete(id); err != nil {
			t.Fatalf("Delete(%d) after reopen: %v", id, err)
		}
	}
	if err := tree.Insert(1, west); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("Insert of a live ID after reopen: %v, want ErrDuplicateID", err)
	}
	if err := tree.Delete(0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Delete of an ID deleted before reopen: %v, want ErrNotFound", err)
	}
	if err := tree.Delete(1); err != nil {
		t.Fatal(err)
	}
	if got := tree.Len(); got != 0 {
		t.Fatalf("Len %d after deleting every object by ID, want 0", got)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}
	if tree, err = OpenTree(cfg.Path, Config{}); err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	if got := tree.Len(); got != 0 {
		t.Fatalf("emptied file reopens with Len %d", got)
	}
}

// deleteByIDConfigs are the two stores a Tree can sit on.
func deleteByIDConfigs(t *testing.T) map[string]Config {
	return map[string]Config{
		"mem":  {Dimensions: 2},
		"file": {Dimensions: 2, Path: filepath.Join(t.TempDir(), "delete.utree")},
	}
}

// TestDeleteByIDInsertedInSameBatch: Delete reads the object's region from
// its record, and a record appended earlier in the same WriteBatch is still
// only in the writer's copy of its data page — the store's copy of the page
// does not hold it yet. The delete must read it from there.
func TestDeleteByIDInsertedInSameBatch(t *testing.T) {
	for name, cfg := range deleteByIDConfigs(t) {
		t.Run(name, func(t *testing.T) {
			tree, err := NewTree(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer tree.Close()
			if err := tree.BulkLoad(shardedFixtureObjects(200, 31)); err != nil {
				t.Fatal(err)
			}
			queries := shardedFixtureQueries(20, 32)
			want := searchInOrder(t, tree, queries)
			if err := tree.WriteBatch(func(w BatchWriter) error {
				for id := int64(1000); id < 1010; id++ {
					if err := w.Insert(id, UniformCircle(Pt(float64(id-1000)*90+30, 480), 15)); err != nil {
						return err
					}
				}
				for id := int64(1000); id < 1010; id += 2 {
					if err := w.Delete(id); err != nil {
						return fmt.Errorf("delete of %d, inserted in this batch: %w", id, err)
					}
				}
				return w.Delete(5) // a bulk-loaded object, beside them
			}); err != nil {
				t.Fatal(err)
			}
			if got := tree.Len(); got != 200+5-1 {
				t.Fatalf("Len %d after the batch, want %d", got, 204)
			}
			assertDirectory(t, "after the batch", tree)
			if err := tree.CheckRecords(); err != nil {
				t.Fatal(err)
			}
			// The batch's survivors delete by ID once it committed too.
			for id := int64(1001); id < 1010; id += 2 {
				if err := tree.Delete(id); err != nil {
					t.Fatalf("Delete(%d) after the batch: %v", id, err)
				}
			}
			if err := tree.Insert(5, UniformCircle(Pt(-500, -500), 1)); err != nil {
				t.Fatal(err)
			}
			if err := tree.Delete(5); err != nil {
				t.Fatal(err)
			}
			assertDirectory(t, "after the survivors' deletes", tree)
			got := searchInOrder(t, tree, queries)
			for i := range want {
				want[i], got[i] = sortByID(withoutID(want[i], 5)), sortByID(got[i])
			}
			requireSameResults(t, "after the batch", want, got)
		})
	}
}

// withoutID drops object id from a result list.
func withoutID(res []Result, id int64) []Result {
	out := res[:0:0]
	for _, r := range res {
		if r.ID != id {
			out = append(out, r)
		}
	}
	return out
}

// TestDeleteByIDAfterRolledBackInsert: a rolled-back batch takes its
// inserts out of the directory with the index — Delete of such an ID is
// ErrNotFound — and gives a live object it deleted its old record address
// back. An ID re-inserted after the rollback deletes through its new
// record.
func TestDeleteByIDAfterRolledBackInsert(t *testing.T) {
	for name, idx := range addressingIndexes(t) {
		t.Run(name, func(t *testing.T) {
			if err := idx.Insert(1, west); err != nil {
				t.Fatal(err)
			}
			boom := errors.New("boom")
			err := idx.WriteBatch(func(w BatchWriter) error {
				if err := w.Insert(7, east); err != nil {
					return err
				}
				if err := w.Delete(1); err != nil {
					return err
				}
				if err := w.Insert(1, east); err != nil {
					return err
				}
				return boom
			})
			if !errors.Is(err, boom) {
				t.Fatalf("WriteBatch: %v, want %v", err, boom)
			}
			assertDirectory(t, "after the rollback", idx)
			if err := idx.Delete(7); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Delete of an ID only a rolled-back batch inserted: %v, want ErrNotFound", err)
			}
			if got := idx.Len(); got != 1 {
				t.Fatalf("Len %d after the rollback, want 1", got)
			}
			if err := idx.Insert(7, UniformCircle(Pt(500, 500), 10)); err != nil {
				t.Fatal(err)
			}
			assertDirectory(t, "after the re-insert", idx)
			for _, id := range []int64{1, 7} {
				if err := idx.Delete(id); err != nil {
					t.Fatalf("Delete(%d): %v", id, err)
				}
			}
			if got := idx.Len(); got != 0 {
				t.Fatalf("Len %d after deleting both, want 0", got)
			}
			assertDirectory(t, "emptied", idx)
			if err := idx.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRollbackDropsShapeThenReuse: a rolled-back batch takes the shapes it
// entered out of the table, and the next batch hands their references to
// other shapes. The keyed records of the rolled-back batch still lie in the
// data file, naming references that now mean other shapes; nothing reaches
// them. Every live record decodes against the table of its epoch: the
// records check out, the directory matches the leaves, and queries that
// read every record answer as a twin built from the live objects alone.
func TestRollbackDropsShapeThenReuse(t *testing.T) {
	live := map[int64]PDF{
		1: UniformCircle(Pt(900, 500), 10),
		9: ConstrainedGaussian(Pt(880, 520), 17, 8),
		7: UniformCircle(Pt(920, 480), 21),
	}
	for name, idx := range addressingIndexes(t) {
		t.Run(name, func(t *testing.T) {
			if err := idx.Insert(1, live[1]); err != nil {
				t.Fatal(err)
			}
			boom := errors.New("boom")
			err := idx.WriteBatch(func(w BatchWriter) error {
				if err := w.Insert(7, UniformCircle(Pt(910, 510), 13)); err != nil {
					return err
				}
				if err := w.Insert(8, ConstrainedGaussian(Pt(890, 490), 13, 6)); err != nil {
					return err
				}
				return boom
			})
			if !errors.Is(err, boom) {
				t.Fatalf("WriteBatch: %v, want %v", err, boom)
			}
			if err := idx.WriteBatch(func(w BatchWriter) error {
				if err := w.Insert(9, live[9]); err != nil {
					return err
				}
				return w.Insert(7, live[7])
			}); err != nil {
				t.Fatal(err)
			}
			assertDirectory(t, "after the reuse", idx)
			trees := []*Tree{}
			switch x := idx.(type) {
			case *Tree:
				trees = append(trees, x)
			case *ShardedTree:
				trees = x.shards
			}
			shapes := 0
			for _, tr := range trees {
				if err := tr.CheckRecords(); err != nil {
					t.Fatal(err)
				}
				shapes = max(shapes, tr.Shapes())
			}
			if shapes != 3 {
				t.Fatalf("%d shapes in the fullest table, want the 3 live ones", shapes)
			}

			twin, err := NewTree(Config{Dimensions: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer twin.Close()
			for _, id := range []int64{1, 9, 7} {
				if err := twin.Insert(id, live[id]); err != nil {
					t.Fatal(err)
				}
			}
			for _, q := range []Rect{Box(Pt(860, 480), Pt(900, 530)), Box(Pt(900, 460), Pt(950, 500))} {
				got, _, err1 := idx.Search(context.Background(), q, 0.05)
				want, _, err2 := twin.Search(context.Background(), q, 0.05)
				if err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
				requireSameResults(t, "after the reuse", [][]Result{sortedByID(want)}, [][]Result{sortedByID(got)})
			}
			got, _, err1 := idx.NearestNeighbors(context.Background(), Pt(895, 505), 3)
			want, _, err2 := twin.NearestNeighbors(context.Background(), Pt(895, 505), 3)
			if err1 != nil || err2 != nil || len(got) != 3 || len(want) != 3 {
				t.Fatalf("k-NN: %v (%v), twin %v (%v)", got, err1, want, err2)
			}
			for i := range got {
				if got[i].ID != want[i].ID {
					t.Fatalf("k-NN neighbour %d: %+v, twin %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// sortedByID returns the results ordered by ID.
func sortedByID(rs []Result) []Result {
	rs = slices.Clone(rs)
	slices.SortFunc(rs, func(a, b Result) int { return cmp.Compare(a.ID, b.ID) })
	return rs
}

// recordPage returns one of the bulk-loaded objs whose record lies on the
// lowest data page — a sealed one, not the append page a delete would read
// from memory — and its address.
func recordPage(t *testing.T, tree *Tree, objs map[int64]PDF) (int64, core.DataAddr) {
	t.Helper()
	tree.mu.Lock()
	defer tree.mu.Unlock()
	victim, lo, hi := int64(-1), core.DataAddr{Page: pagefile.InvalidPage}, pagefile.PageID(0)
	for id := range objs {
		a, _ := tree.inner.RecordAddr(id)
		if a.Page < lo.Page || a.Page == lo.Page && id < victim {
			victim, lo = id, a
		}
		hi = max(hi, a.Page)
	}
	if lo.Page == hi {
		t.Fatalf("fixture: every record on page %d", hi)
	}
	return victim, lo
}

// TestDeleteByIDRecordReadFails: a delete whose record read fails returns
// the store's error and changes nothing — Len, the directory and every
// answer stay as they were — and succeeds once the page reads again.
func TestDeleteByIDRecordReadFails(t *testing.T) {
	for name, cfg := range deleteByIDConfigs(t) {
		t.Run(name, func(t *testing.T) {
			var inj *chaos.Store
			cfg.WrapStore = func(s pagefile.Store) pagefile.Store {
				inj = chaos.New(s, 1)
				return inj
			}
			tree, err := NewTree(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer tree.Close()
			objs := shardedFixtureObjects(300, 33)
			if err := tree.BulkLoad(objs); err != nil {
				t.Fatal(err)
			}
			queries := shardedFixtureQueries(20, 34)
			want := searchInOrder(t, tree, queries)
			victim, addr := recordPage(t, tree, objs)

			rule := inj.MustAddRule(chaos.Rule{Op: chaos.OpRead, Fault: chaos.FaultPermanent, Sticky: true, Pages: []pagefile.PageID{addr.Page}})
			for attempt := 0; attempt < 2; attempt++ {
				if err := tree.Delete(victim); !errors.Is(err, chaos.ErrInjected) {
					t.Fatalf("Delete(%d) with its record page %d unreadable: %v, want ErrInjected", victim, addr.Page, err)
				}
			}
			if rule.Triggered() != 2 {
				t.Fatalf("the record page's rule fired %d times for two deletes, want 2", rule.Triggered())
			}
			if got := tree.Len(); got != 300 {
				t.Fatalf("Len %d after failed deletes, want 300", got)
			}
			assertDirectory(t, "after failed deletes", tree)
			rule.Arm(-1)
			requireSameResults(t, "after failed deletes", want, searchInOrder(t, tree, queries))
			if err := tree.Delete(victim); err != nil {
				t.Fatalf("Delete(%d) once its page reads: %v", victim, err)
			}
			if got := tree.Len(); got != 299 {
				t.Fatalf("Len %d after the delete, want 299", got)
			}
			assertDirectory(t, "after the delete", tree)
		})
	}
}

// misdirect is a store whose reads of page from return page to's bytes.
type misdirect struct {
	pagefile.Store
	from, to pagefile.PageID
}

func (m *misdirect) Read(id pagefile.PageID, buf []byte) error {
	if id == m.from {
		id = m.to
	}
	return m.Store.Read(id, buf)
}

// TestDeleteByIDRecordMismatchIsBadPage: a directory address whose record
// holds another object is corruption — ErrBadPage — and the delete mutates
// nothing, not even the object that record does hold. The directory is
// core's, so a misdirected read stands in for a wrong address: the victim's
// record page reads as a page whose record in the same slot is another
// object's.
func TestDeleteByIDRecordMismatchIsBadPage(t *testing.T) {
	swap := &misdirect{from: pagefile.InvalidPage}
	tree, err := NewTree(Config{Dimensions: 2, WrapStore: func(s pagefile.Store) pagefile.Store {
		swap.Store = s
		return swap
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	objs := shardedFixtureObjects(300, 35) // records on two pages at least
	if err := tree.BulkLoad(objs); err != nil {
		t.Fatal(err)
	}
	queries := shardedFixtureQueries(20, 36)
	want := searchInOrder(t, tree, queries)
	victim, addr := recordPage(t, tree, objs)
	other := int64(-1)
	for id := range objs {
		if a, _ := tree.inner.RecordAddr(id); a.Slot == addr.Slot && a.Page != addr.Page {
			other, swap.to = id, a.Page
			break
		}
	}
	if other < 0 {
		t.Fatalf("fixture: no other record in slot %d", addr.Slot)
	}
	swap.from = addr.Page
	if err := tree.Delete(victim); !errors.Is(err, ErrBadPage) {
		t.Fatalf("Delete through another object's record: %v, want ErrBadPage", err)
	}
	swap.from = pagefile.InvalidPage
	if got := tree.Len(); got != 300 {
		t.Fatalf("Len %d after the refused delete, want 300", got)
	}
	requireSameResults(t, "after the refused delete", want, searchInOrder(t, tree, queries))
	assertDirectory(t, "repaired", tree)
	for _, id := range []int64{victim, other} {
		if err := tree.Delete(id); err != nil {
			t.Fatalf("Delete(%d) with the reads repaired: %v", id, err)
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
