package uncertain

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/pagefile"
)

// Tests of the group-commit write path: size/age auto-grouping, the
// explicit WriteBatch epoch, snapshot isolation across a batch boundary,
// rollback of grouped mutations, per-shard batches, and the background
// reclaimer's pin safety under -race.

func batchPDF(rng *rand.Rand) PDF {
	return UniformCircle(Pt(rng.Float64()*1000, rng.Float64()*1000), 10)
}

func TestGroupCommitSizeThreshold(t *testing.T) {
	tree, err := NewTree(Config{Dimensions: 2, ExactRefinement: true, GroupCommitOps: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	rng := rand.New(rand.NewSource(1))
	epoch0 := tree.Epoch()

	for i := int64(0); i < 7; i++ {
		if err := tree.Insert(i, batchPDF(rng)); err != nil {
			t.Fatal(err)
		}
	}
	// Queries observe the last committed epoch: the open group is
	// invisible to Len and Search alike.
	everywhere := Box(Pt(-100, -100), Pt(1100, 1100))
	visible := func() int {
		t.Helper()
		res, _, err := tree.Search(context.Background(), everywhere, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		return len(res)
	}
	if got, found := tree.Len(), visible(); got != 0 || found != 0 {
		t.Fatalf("7 grouped inserts already visible: Len=%d, Search found %d, want 0", got, found)
	}
	if tree.Epoch() != epoch0 {
		t.Fatalf("epoch advanced mid-group: %d -> %d", epoch0, tree.Epoch())
	}
	// The 8th op reaches GroupCommitOps and publishes the whole group.
	if err := tree.Insert(7, batchPDF(rng)); err != nil {
		t.Fatal(err)
	}
	if got, found := tree.Len(), visible(); got != 8 || found != 8 {
		t.Fatalf("after group commit: Len=%d, Search found %d, want 8", got, found)
	}
	if tree.Epoch() != epoch0+1 {
		t.Fatalf("group committed %d epochs, want exactly 1", tree.Epoch()-epoch0)
	}
	// Flush publishes an open group on demand — read-your-writes.
	for i := int64(8); i < 15; i++ {
		if err := tree.Insert(i, batchPDF(rng)); err != nil {
			t.Fatal(err)
		}
	}
	if got, found := tree.Len(), visible(); got != 8 || found != 8 {
		t.Fatalf("second open group visible before Flush: Len=%d, Search found %d, want 8", got, found)
	}
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, found := tree.Len(), visible(); got != 15 || found != 15 {
		t.Fatalf("after Flush: Len=%d, Search found %d, want 15", got, found)
	}
}

func TestGroupCommitAgeDeadline(t *testing.T) {
	tree, err := NewTree(Config{Dimensions: 2, ExactRefinement: true, GroupCommitInterval: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	rng := rand.New(rand.NewSource(2))

	if err := tree.Insert(1, batchPDF(rng)); err != nil {
		t.Fatal(err)
	}
	if got := tree.Len(); got != 0 {
		t.Fatalf("young group already committed: Len=%d", got)
	}
	time.Sleep(50 * time.Millisecond)
	// The group is over age now: the deadline timer seals it, or — when
	// the timer has not ticked yet — this op's own deadline check does
	// (itself included). Either way the first insert is committed once the
	// op returns.
	if err := tree.Insert(2, batchPDF(rng)); err != nil {
		t.Fatal(err)
	}
	if got := tree.Len(); got < 1 {
		t.Fatalf("aged group not committed by the next op: Len=%d", got)
	}
	// The second insert follows within one more interval, with no further
	// mutation.
	deadline := time.Now().Add(2 * time.Second)
	for tree.Len() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("second group not sealed by the deadline: Len=%d, want 2", tree.Len())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestConcurrentGroupTimerSealsIdleTail(t *testing.T) {
	c, err := NewConcurrentTree(Config{Dimensions: 2, ExactRefinement: true,
		GroupCommitOps: 100, GroupCommitInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(3))
	for i := int64(0); i < 3; i++ {
		if err := c.Insert(i, batchPDF(rng)); err != nil {
			t.Fatal(err)
		}
	}
	// No further mutations arrive; only the deadline timer can seal the
	// 3-op tail.
	deadline := time.Now().Add(2 * time.Second)
	for c.Len() != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("idle group tail not sealed by timer: Len=%d, want 3", c.Len())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestWriteBatchSnapshotIsolation(t *testing.T) {
	c, err := NewConcurrentTree(Config{Dimensions: 2, ExactRefinement: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(4))
	for i := int64(0); i < 2; i++ {
		if err := c.Insert(i, batchPDF(rng)); err != nil {
			t.Fatal(err)
		}
	}

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
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteBatchRollback(t *testing.T) {
	tree, err := NewTree(Config{Dimensions: 2, ExactRefinement: true})
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
	// The pdfs bookkeeping must roll back with the index: id 1 is still
	// deletable by bare ID, the batch's inserts are not.
	if err := tree.Delete(20); err == nil {
		t.Fatal("rolled-back insert still tracked in pdfs map")
	}
	if err := tree.Delete(1); err != nil {
		t.Fatalf("pre-batch object lost its pdfs tracking: %v", err)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestShardedWriteBatchAndGCInfo(t *testing.T) {
	s, err := NewShardedTree(4, Config{Dimensions: 2, ExactRefinement: true})
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

// TestBackgroundReclaimerPinSafety hammers a file-backed ConcurrentTree
// with a grouped writer, snapshot readers validating invariants on every
// pinned epoch, and the background reclaimer draining on 1 ms ticks with a
// small page budget. Under -race this doubles as the data race check; the
// per-snapshot CheckInvariants would catch the reclaimer freeing any page
// a pinned epoch can still reach. Once the writer idles, pending garbage
// must drain to zero through the reclaimer alone — no Flush, no explicit
// Reclaim.
func TestBackgroundReclaimerPinSafety(t *testing.T) {
	cfg := Config{
		Dimensions:        2,
		ExactRefinement:   true,
		Path:              filepath.Join(t.TempDir(), "hammer.utree"),
		BufferPages:       32,
		GroupCommitOps:    4,
		ReclaimInterval:   time.Millisecond,
		ReclaimPageBudget: 8,
	}
	c, err := NewConcurrentTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if !c.GCInfo().ReclaimerRunning {
		t.Fatal("background reclaimer not running")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	readerErr := make(chan error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := c.Snapshot()
				err := snap.CheckInvariants()
				if err == nil {
					_, _, err = snap.Search(context.Background(),
						Box(Pt(0, 0), Pt(1000, 1000)), 0.5)
				}
				snap.Close()
				if err != nil {
					select {
					case readerErr <- err:
					default:
					}
					return
				}
			}
		}(int64(r))
	}

	// 240 ops = 60 groups of 4; every 2nd insert is later deleted, so the
	// pages the reclaimer frees were retired by inserts and deletes alike.
	rng := rand.New(rand.NewSource(7))
	ops := 0
	for i := int64(0); i < 160; i++ {
		if err := c.Insert(i, batchPDF(rng)); err != nil {
			t.Fatal(err)
		}
		ops++
		if i%2 == 1 {
			if err := c.Delete(i - 1); err != nil {
				t.Fatal(err)
			}
			ops++
		}
	}
	if ops%cfg.GroupCommitOps != 0 {
		t.Fatalf("test bug: %d ops leave an open group tail", ops)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-readerErr:
		t.Fatalf("reader during hammer: %v", err)
	default:
	}

	// Writer idle, no pins: the reclaimer must drain everything on its own.
	deadline := time.Now().Add(10 * time.Second)
	for {
		info := c.GCInfo()
		if info.PendingPages == 0 && info.PendingEpochs == 0 {
			if info.ReclaimedPages == 0 {
				t.Fatal("reclaimer drained nothing despite COW churn")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pending garbage never drained while idle: %+v", info)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := c.CheckInvariants(); err != nil {
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
func TestWriteBatchPageWrites(t *testing.T) {
	// Base-store page writes per batch, measured at the commit that stopped
	// deletes from rewriting data pages; the commit before it wrote
	// parentWrites for the same five batches.
	want := [5]int64{32, 20, 25, 27, 21}
	const parentWrites = 158 // 38, 27, 31, 34, 28

	var base pagefile.Store
	tree, err := NewTree(Config{Dimensions: 2, ExactRefinement: true, WrapStore: func(s pagefile.Store) pagefile.Store {
		base = s
		return s
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	rng := rand.New(rand.NewSource(42))
	ball := func() PDF { return UniformCircle(Pt(rng.Float64()*10000, rng.Float64()*10000), 250) }
	const n = 2000
	objs := make(map[int64]PDF, n)
	for id := int64(0); id < n; id++ {
		objs[id] = ball()
	}
	if err := tree.BulkLoad(objs); err != nil {
		t.Fatal(err)
	}
	var got [5]int64
	var total int64
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
		total += got[b]
	}
	if got != want {
		t.Errorf("base-store page writes per batch %v, want %v", got, want)
	}
	if total >= parentWrites {
		t.Errorf("%d page writes over five batches, not below the %d of the commit before deletes left the data file alone", total, parentWrites)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := tree.CheckRecords(); err != nil {
		t.Fatal(err)
	}
}
