package uncertain

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/pagefile"
)

// Tests of the write path: the WriteBatch epoch, snapshot isolation across
// a batch boundary, rollback of batched mutations, per-shard batches, and
// inline reclamation's pin safety under -race.

func batchPDF(rng *rand.Rand) PDF {
	return UniformCircle(Pt(rng.Float64()*1000, rng.Float64()*1000), 10)
}

func TestWriteBatchSnapshotIsolation(t *testing.T) {
	c, err := NewConcurrentTree(Config{Dimensions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(4))
	epoch0 := c.Epoch()
	for i := int64(0); i < 2; i++ {
		if err := c.Insert(i, batchPDF(rng)); err != nil {
			t.Fatal(err)
		}
	}
	// Outside a batch every mutation is an epoch of its own.
	if got := c.Epoch() - epoch0; got != 2 {
		t.Fatalf("2 inserts committed %d epochs, want 2", got)
	}
	epoch0 = c.Epoch()

	midBatch := make(chan struct{})
	readerDone := make(chan error, 1)
	go func() {
		<-midBatch
		// Mid-batch, lock-free readers must see exactly the pre-batch
		// epoch: 2 objects, valid structure.
		snap := c.Snapshot()
		defer snap.Close()
		if n := snap.Len(); n != 2 {
			readerDone <- fmt.Errorf("mid-batch snapshot Len=%d, want 2 (saw a batch prefix)", n)
			return
		}
		if n := c.Len(); n != 2 {
			readerDone <- fmt.Errorf("mid-batch Len=%d, want 2", n)
			return
		}
		readerDone <- snap.CheckInvariants()
	}()

	err = c.WriteBatch(func(w BatchWriter) error {
		for i := int64(10); i < 15; i++ {
			if err := w.Insert(i, batchPDF(rng)); err != nil {
				return err
			}
		}
		if err := w.Delete(0); err != nil {
			return err
		}
		close(midBatch)
		return <-readerDone // reader asserts while the batch is open
	})
	if err != nil {
		t.Fatalf("WriteBatch: %v", err)
	}
	if n := c.Len(); n != 6 {
		t.Fatalf("post-batch Len=%d, want 6 (2 - 1 + 5)", n)
	}
	if got := c.Epoch() - epoch0; got != 1 {
		t.Fatalf("a 6-op batch committed %d epochs, want exactly 1", got)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteBatchRollback(t *testing.T) {
	tree, err := NewTree(Config{Dimensions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	rng := rand.New(rand.NewSource(5))
	if err := tree.Insert(1, batchPDF(rng)); err != nil {
		t.Fatal(err)
	}
	epoch0 := tree.Epoch()

	boom := errors.New("boom")
	err = tree.WriteBatch(func(w BatchWriter) error {
		for i := int64(20); i < 23; i++ {
			if err := w.Insert(i, batchPDF(rng)); err != nil {
				return err
			}
		}
		if err := w.Delete(1); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("WriteBatch error = %v, want %v", err, boom)
	}
	if tree.Epoch() != epoch0 {
		t.Fatalf("failed batch advanced the epoch: %d -> %d", epoch0, tree.Epoch())
	}
	if n := tree.Len(); n != 1 {
		t.Fatalf("failed batch left Len=%d, want 1", n)
	}
	assertDirectory(t, "after the failed batch", tree)
	// The ID directory must roll back with the index: id 1 is still
	// deletable by bare ID, the batch's inserts are not.
	if err := tree.Delete(20); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Delete of a rolled-back insert: %v, want ErrNotFound", err)
	}
	if err := tree.Delete(1); err != nil {
		t.Fatalf("pre-batch object left the directory: %v", err)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteBatchPanicRollsBack: a panic in fn, recovered by the caller,
// rolls the batch back and leaves batch mode — the batch's insert is not
// live, the next Insert publishes on its own, and a reopened file holds
// that object alone.
func TestWriteBatchPanicRollsBack(t *testing.T) {
	for _, file := range []bool{false, true} {
		t.Run(map[bool]string{false: "memory", true: "file"}[file], func(t *testing.T) {
			cfg := Config{Dimensions: 2}
			if file {
				cfg.Path = filepath.Join(t.TempDir(), "panic.utree")
			}
			tree, err := NewTree(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(6))
			func() {
				defer func() {
					if p := recover(); p != "boom" {
						t.Fatalf("recovered %v, want fn's panic", p)
					}
				}()
				tree.WriteBatch(func(w BatchWriter) error {
					if err := w.Insert(1, batchPDF(rng)); err != nil {
						t.Fatal(err)
					}
					panic("boom")
				})
			}()
			if tree.holds(1) {
				t.Fatal("the panicked batch's insert is live")
			}
			if err := tree.Insert(2, batchPDF(rng)); err != nil {
				t.Fatal(err)
			}
			if n := tree.Len(); n != 1 {
				t.Fatalf("Len = %d after one insert, want 1", n)
			}
			assertDirectory(t, "after the panicked batch", tree)
			if !file {
				tree.Close()
				return
			}
			if err := tree.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := OpenTree(cfg.Path, Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if n := re.Len(); n != 1 || !re.holds(2) || re.holds(1) {
				t.Fatalf("reopened: Len = %d, holds 1 = %v, holds 2 = %v; want object 2 alone", n, re.holds(1), re.holds(2))
			}
			if err := re.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestShardedWriteBatchAndGCInfo(t *testing.T) {
	s, err := NewSpatialShardedTree(4, Config{Dimensions: 2}, fixtureDomain)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(6))
	if err := s.Insert(500, batchPDF(rng)); err != nil {
		t.Fatal(err)
	}

	const n = 64
	err = s.WriteBatch(func(w BatchWriter) error {
		for i := int64(0); i < n; i++ {
			if err := w.Insert(i, batchPDF(rng)); err != nil {
				return err
			}
		}
		return w.Delete(500)
	})
	if err != nil {
		t.Fatalf("sharded WriteBatch: %v", err)
	}
	if got := s.Len(); got != n {
		t.Fatalf("sharded batch Len=%d, want %d", got, n)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// An fn error must apply nothing on any shard.
	boom := errors.New("boom")
	err = s.WriteBatch(func(w BatchWriter) error {
		for i := int64(100); i < 110; i++ {
			if err := w.Insert(i, batchPDF(rng)); err != nil {
				return err
			}
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("sharded WriteBatch error = %v, want %v", err, boom)
	}
	if got := s.Len(); got != n {
		t.Fatalf("failed sharded batch mutated the index: Len=%d, want %d", got, n)
	}

	// GCInfo merges across shards: epochs advanced everywhere, nothing
	// pending once deferred garbage drained.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	info := s.GCInfo()
	if info.Epoch == 0 {
		t.Fatal("merged GCInfo reports epoch 0")
	}
	if info.PendingPages != 0 || info.PendingEpochs != 0 {
		t.Fatalf("pending garbage after Flush with no pins: %+v", info)
	}
}

// TestReclaimPinSafety hammers a file-backed and a memory Tree with a
// writer grouping every 4 ops in a WriteBatch and snapshot readers
// validating invariants and records on every pinned epoch and scrubbing the
// committed tree, while each commit reclaims inline whatever the pins
// allow. Each reader runs a range query through the decoded-node cache
// right after pinning and again after its checks, and the two answers must
// agree: on a memory tree a cached node views the store's own page, so a
// page reclaimed and reallocated under a pin would change the second
// answer. Under -race this doubles as the data race check — the snapshot
// checks read committed pages beside the writer, never its dirty pages;
// the per-snapshot checks would catch a commit freeing any page a pinned
// epoch can still reach. Once the readers stop, one Flush must drain
// everything.
func TestReclaimPinSafety(t *testing.T) {
	for _, onFile := range []bool{true, false} {
		cfg, name := Config{Dimensions: 2}, "memory"
		if onFile {
			cfg.Path, name = filepath.Join(t.TempDir(), "hammer.utree"), "file"
		}
		t.Run(name, func(t *testing.T) { reclaimPinSafety(t, cfg) })
	}
}

func reclaimPinSafety(t *testing.T, cfg Config) {
	tree, err := NewTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	readerErr := make(chan error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			region := Box(Pt(0, 0), Pt(1000, 1000))
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := tree.Snapshot()
				first, _, err := snap.Search(context.Background(), region, 0.5)
				if err == nil {
					err = snap.CheckInvariants()
				}
				if err == nil {
					err = tree.CheckRecords()
				}
				if err == nil {
					var again []Result
					if again, _, err = snap.Search(context.Background(), region, 0.5); err == nil && !slices.Equal(first, again) {
						err = fmt.Errorf("epoch %d answered %d results, then %d", snap.Epoch(), len(first), len(again))
					}
				}
				snap.Close()
				if _, corrupt := tree.Scrub(); err == nil && len(corrupt) != 0 {
					err = fmt.Errorf("scrub beside the writer found corrupt pages: %v", corrupt)
				}
				if err != nil {
					select {
					case readerErr <- err:
					default:
					}
					return
				}
			}
		}()
	}

	// 240 ops in 60 batches of 4 — three inserts, then a delete of the
	// first — so the pages reclaimed were retired by inserts and deletes
	// alike.
	rng := rand.New(rand.NewSource(7))
	for i := int64(0); i < 180; i += 3 {
		if err := tree.WriteBatch(func(w BatchWriter) error {
			for id := i; id < i+3; id++ {
				if err := w.Insert(id, batchPDF(rng)); err != nil {
					return err
				}
			}
			return w.Delete(i)
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-readerErr:
		t.Fatalf("reader during hammer: %v", err)
	default:
	}

	// No pins left: one Flush drains whatever the readers held back.
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	info := tree.GCInfo()
	if info.Pins != 0 || info.PendingPages != 0 || info.PendingEpochs != 0 {
		t.Fatalf("garbage left after Flush: %+v", info)
	}
	if info.ReclaimedPages == 0 {
		t.Fatal("nothing reclaimed despite COW churn")
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteBatchPageWrites gates write amplification on a count that repeats
// exactly: a seeded 2-D uniform-ball tree, bulk-loaded on a memory store,
// then five WriteBatches of 8 inserts + 8 deletes in ID order (bulk load
// clusters records in leaf order and IDs are spatially random, so the
// deletes of one batch fall on about as many data pages as there are
// deletes). Every page the base store is
// asked to write is a leaf or inner relocation, the one append page, or the
// metadata page — a delete writes no data page.
//
// Three sizes, of centre (keyed ball) leaf entries, 127 to a leaf, 32 B
// each; STR leaves a full entry's 112 B of room where a run can spare it.
// At 3,175 objects no STR run can (5 slabs of 635 entries, 5 leaves each,
// and 5 × (4,064 − 112) B < 635 × 32 B), so every leaf starts full and the
// inserts split as they do when STR packs leaves full: the total must not
// rise. At 2,400 every run has room (5 slabs of 480 entries, 4 leaves
// each), every leaf 112 B free, and the total must fall below the full
// packing's. Both trees are two levels high. At 13,000 the tree is three —
// 110 leaves under two intermediate nodes of 102 float32 entries at most —
// so each batch also rewrites intermediate pages below the root, and their
// size is what the count shows. The records are dense (UTR8): a ball's
// 21 B with a 2-byte id and its 2-byte slot, 177 to a data page. At 3,175
// the load leaves its last data page room for 28 of the batches' records,
// so the fourth batch's appends cross onto a fresh page: its fifth insert
// starts the page, one page write more than the 17 it took when 132
// 31-B records filled a page and the load's last page had room for all 40.
func TestWriteBatchPageWrites(t *testing.T) {
	for _, tc := range []struct {
		n      int64
		height int
		want   [5]int64 // base-store page writes per batch
		// full is the total when STR packs every leaf full, 127 entries a
		// leaf in tile order: at 3,175 [32 18 14 18 15] (the fourth batch
		// crosses a data page there too), at 2,400 [19 17 14 14 15]; 0
		// where not pinned.
		full  int64
		below bool // the total must be below full, not just not above it
	}{
		{n: 3175, height: 2, want: [5]int64{32, 18, 14, 18, 15}, full: 97},
		{n: 2400, height: 2, want: [5]int64{13, 15, 12, 12, 11}, full: 79, below: true},
		{n: 13000, height: 3, want: [5]int64{19, 19, 19, 20, 18}},
	} {
		got, height := writeBatchPageWrites(t, tc.n)
		if height != tc.height {
			t.Errorf("%d objects: height %d, want %d", tc.n, height, tc.height)
		}
		var total int64
		for _, w := range got {
			total += w
		}
		if got != tc.want {
			t.Errorf("%d objects: base-store page writes per batch %v, want %v", tc.n, got, tc.want)
		}
		if tc.full != 0 && (total > tc.full || tc.below && total == tc.full) {
			t.Errorf("%d objects: %d page writes over five batches; STR packing leaves full wrote %d", tc.n, total, tc.full)
		}
	}
}

// writeBatchPageWrites bulk-loads n seeded balls, runs the five batches and
// returns each one's base-store page writes, and the tree's height.
func writeBatchPageWrites(t *testing.T, n int64) ([5]int64, int) {
	t.Helper()
	var base pagefile.Store
	tree, err := NewTree(Config{Dimensions: 2, WrapStore: func(s pagefile.Store) pagefile.Store {
		base = s
		return s
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	rng := rand.New(rand.NewSource(42))
	ball := func() PDF { return UniformCircle(Pt(rng.Float64()*10000, rng.Float64()*10000), 250) }
	objs := make(map[int64]PDF, n)
	for id := int64(0); id < n; id++ {
		objs[id] = ball()
	}
	if err := tree.BulkLoad(objs); err != nil {
		t.Fatal(err)
	}
	var got [5]int64
	for b := range got {
		_, w0, _, _ := base.Stats().Snapshot()
		if err := tree.WriteBatch(func(w BatchWriter) error {
			for i := int64(0); i < 8; i++ {
				if err := w.Insert(n+int64(b)*8+i, ball()); err != nil {
					return err
				}
				if err := w.Delete(int64(b)*8 + i); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		_, w1, _, _ := base.Stats().Snapshot()
		got[b] = w1 - w0
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := tree.CheckRecords(); err != nil {
		t.Fatal(err)
	}
	return got, tree.Height()
}
