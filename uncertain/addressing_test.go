package uncertain

import (
	"errors"
	"path/filepath"
	"testing"
)

// Tests of object addressing: an ID names one object in the whole index,
// Delete(id) is the only delete, and the ID directory behind it rolls back
// with the index and is rebuilt when a file is reopened.

// addressingIndexes builds one empty index of each shape: a Tree and a
// ShardedTree of four slabs over fixtureDomain.
func addressingIndexes(t *testing.T) map[string]Index {
	t.Helper()
	cfg := Config{Dimensions: 2, ExactRefinement: true}
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
	cfg := Config{Dimensions: 2, ExactRefinement: true, Path: filepath.Join(t.TempDir(), "reopen.utree")}
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

	tree, err := OpenTree(cfg.Path, Config{ExactRefinement: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.Len(); got != len(objects) {
		t.Fatalf("reopened Len %d, want %d", got, len(objects))
	}
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
