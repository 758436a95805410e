package uncertain

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/pagefile"
)

// End-to-end fault-tolerance tests: chaos injection under the full index
// stack (checksummed file store → chaos → latency → retry → buffer pool →
// tree), checking the user-visible contract — transient faults invisible,
// corruption typed and quarantined, shard failures degradable — plus
// resource hygiene on every error path.

// faultTestConfig is the shared shape of these tests: a tiny page cache
// and no decoded-node cache, so queries genuinely hit the store and the
// fault machinery under test.
func faultTestConfig(path string) Config {
	return Config{
		Dimensions:       2,
		ExactRefinement:  true,
		Seed:             11,
		BufferPages:      4,
		NodeCacheEntries: -1,
		Path:             path,
		RetryAttempts:    6,
		RetryBaseDelay:   50 * time.Microsecond,
		RetryMaxDelay:    time.Millisecond,
	}
}

// TestTransientFaultsAbsorbedEndToEnd checks acceptance property (a):
// a workload under injected transient I/O faults completes with zero
// user-visible errors and answers identical to a fault-free twin.
func TestTransientFaultsAbsorbedEndToEnd(t *testing.T) {
	objects := shardedFixtureObjects(300, 7)
	queries := shardedFixtureQueries(25, 8)
	dir := t.TempDir()

	clean, err := NewConcurrentTree(faultTestConfig(filepath.Join(dir, "clean.utree")))
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()

	var chaos *pagefile.ChaosStore
	cfg := faultTestConfig(filepath.Join(dir, "chaotic.utree"))
	cfg.WrapStore = func(s pagefile.Store) pagefile.Store {
		chaos = pagefile.NewChaosStore(s, 3)
		return chaos
	}
	faulty, err := NewConcurrentTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer faulty.Close()
	chaos.MustAddRule(pagefile.ChaosRule{Op: pagefile.OpAny, Fault: pagefile.FaultTransient, Prob: 0.05})

	for _, idx := range []Index{clean, faulty} {
		if err := idx.BulkLoad(objects); err != nil {
			t.Fatalf("bulk load: %v", err)
		}
		if err := idx.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
	}

	for i, q := range queries {
		want, _, err := clean.Search(context.Background(), q.Rect, q.Prob)
		if err != nil {
			t.Fatalf("clean query %d: %v", i, err)
		}
		got, _, err := faulty.Search(context.Background(), q.Rect, q.Prob)
		if err != nil {
			t.Fatalf("query %d failed under transient faults: %v", i, err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: %d results under faults, clean twin found %d", i, len(got), len(want))
		}
	}

	// The write path retries too: every mutation must succeed.
	for i := int64(0); i < 40; i++ {
		if err := faulty.Insert(10_000+i, UniformCircle(Pt(float64(10*i)+5, 500), 10)); err != nil {
			t.Fatalf("insert %d under transient faults: %v", i, err)
		}
		if i%4 == 3 {
			if err := faulty.Delete(10_000 + i); err != nil {
				t.Fatalf("delete %d under transient faults: %v", i, err)
			}
		}
	}
	if err := faulty.Flush(); err != nil {
		t.Fatalf("flush under transient faults: %v", err)
	}
	if err := faulty.CheckInvariants(); err != nil {
		t.Fatalf("invariants after faulted workload: %v", err)
	}

	h := faulty.Health()
	if injected := chaos.InjectedCount(pagefile.FaultTransient); injected == 0 {
		t.Fatal("chaos layer injected no faults — the test exercised nothing")
	} else if h.Retries == 0 {
		t.Fatalf("%d transient faults injected but Health reports zero retries", injected)
	}
	if h.QuarantinedPages != 0 {
		t.Fatalf("transient faults must not quarantine pages, got %d", h.QuarantinedPages)
	}
}

// TestBitFlipTypedErrorAndQuarantine checks acceptance property (b): a
// bit flip under the checksummed store surfaces as ErrChecksum/ErrBadPage
// — never as data — and the damaged page is quarantined so later reads
// fail fast with the recorded cause.
func TestBitFlipTypedErrorAndQuarantine(t *testing.T) {
	var chaos *pagefile.ChaosStore
	cfg := faultTestConfig(filepath.Join(t.TempDir(), "flip.utree"))
	cfg.BufferPages = 1 // evict aggressively so reads actually hit the medium
	cfg.WrapStore = func(s pagefile.Store) pagefile.Store {
		chaos = pagefile.NewChaosStore(s, 5)
		return chaos
	}
	tree, err := NewTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Discard()
	flip, err := chaos.AddRule(pagefile.ChaosRule{Op: pagefile.OpRead, Fault: pagefile.FaultBitFlip, Countdown: -1, Bit: 12})
	if err != nil {
		t.Fatal(err)
	}

	if err := tree.BulkLoad(shardedFixtureObjects(200, 9)); err != nil {
		t.Fatal(err)
	}
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}

	flip.Arm(0) // corrupt the medium under the next read
	all := Box(Pt(0, 0), Pt(1000, 1000))
	_, _, err = tree.Search(context.Background(), all, 0.3)
	if err == nil {
		t.Fatal("query over a flipped page succeeded — corruption was believed")
	}
	if !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrBadPage) {
		t.Fatalf("corruption surfaced untyped: %v", err)
	}

	h := tree.Health()
	if h.QuarantinedPages == 0 {
		t.Fatalf("no page quarantined after checksum failure (health %+v)", h)
	}
	rec := h.Quarantined[0]
	if rec.Cause == "" {
		t.Fatalf("quarantine record has no cause: %+v", rec)
	}

	// The rule is spent; the second failure comes from quarantine alone.
	if _, _, err := tree.Search(context.Background(), all, 0.3); err == nil {
		t.Fatal("second query over the quarantined page succeeded")
	} else if !errors.Is(err, ErrBadPage) {
		t.Fatalf("quarantine fast-fail is untyped: %v", err)
	}

	// The medium is deliberately corrupt, so the teardown path is Discard;
	// both it and a late Close must be idempotent no-ops afterwards.
	if err := tree.Discard(); err != nil {
		t.Fatalf("discard: %v", err)
	}
	if err := tree.Discard(); err != nil {
		t.Fatalf("second discard: %v", err)
	}
	if err := tree.Close(); err != nil {
		t.Fatalf("close after discard: %v", err)
	}
}

// TestScrubberFindsSilentCorruption flips a bit directly on the medium —
// no query ever touches it — and waits for the background scrubber to
// find and quarantine the page.
func TestScrubberFindsSilentCorruption(t *testing.T) {
	var base pagefile.Corrupter
	cfg := faultTestConfig(filepath.Join(t.TempDir(), "scrub.utree"))
	cfg.ScrubInterval = time.Millisecond
	cfg.ScrubPageBudget = 32
	cfg.WrapStore = func(s pagefile.Store) pagefile.Store {
		base = s.(pagefile.Corrupter)
		return s
	}
	ct, err := NewConcurrentTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()
	if err := ct.BulkLoad(shardedFixtureObjects(200, 13)); err != nil {
		t.Fatal(err)
	}
	if err := ct.Flush(); err != nil {
		t.Fatal(err)
	}

	reach, err := ct.inner.ReachablePages()
	if err != nil {
		t.Fatal(err)
	}
	var victim pagefile.PageID
	for p := range reach {
		if p > victim {
			victim = p
		}
	}
	if err := base.CorruptPayload(victim, 3); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		h := ct.Health()
		if h.QuarantinedPages > 0 {
			if h.ScrubErrors == 0 {
				t.Fatalf("page quarantined but no scrub error recorded: %+v", h)
			}
			found := false
			for _, rec := range h.Quarantined {
				if rec.Page == victim {
					found = true
				}
			}
			if !found {
				t.Fatalf("scrubber quarantined %+v, corrupted page was %d", h.Quarantined, victim)
			}
			if !h.ScrubberRunning {
				t.Fatal("health says the scrubber is not running")
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("scrubber never found the corrupt page %d (health %+v)", victim, h)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestDegradedShardedReads kills one shard's storage and checks the
// degraded-read contract: without WithAllowDegraded the query fails
// whole; with it, the healthy shards answer and the error is a
// *DegradedError naming the dead shard. All shards dead stays fatal.
func TestDegradedShardedReads(t *testing.T) {
	const shards = 3
	var stores []*pagefile.ChaosStore
	st, err := NewShardedTree(shards, Config{
		Dimensions:       2,
		ExactRefinement:  true,
		Seed:             17,
		BufferPages:      1,
		NodeCacheEntries: -1,
		WrapStore: func(s pagefile.Store) pagefile.Store {
			cs := pagefile.NewChaosStore(s, int64(len(stores)))
			stores = append(stores, cs)
			return cs
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if len(stores) != shards {
		t.Fatalf("WrapStore ran %d times for %d shards", len(stores), shards)
	}
	if err := st.BulkLoad(shardedFixtureObjects(400, 21)); err != nil {
		t.Fatal(err)
	}

	all := Box(Pt(0, 0), Pt(1000, 1000))
	baseline, _, err := st.Search(context.Background(), all, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	baseIDs := make(map[int64]float64, len(baseline))
	for _, r := range baseline {
		baseIDs[r.ID] = r.Prob
	}

	const dead = 1
	kill := stores[dead].MustAddRule(pagefile.ChaosRule{Op: pagefile.OpRead, Fault: pagefile.FaultPermanent, Countdown: -1, Sticky: true})
	kill.Arm(0)

	// Without the option the whole query fails, and not as degraded.
	if _, _, err := st.Search(context.Background(), all, 0.3); err == nil {
		t.Fatal("query with a dead shard succeeded without WithAllowDegraded")
	} else if errors.Is(err, ErrDegraded) {
		t.Fatalf("non-degraded query reported ErrDegraded: %v", err)
	}

	res, _, err := st.Search(context.Background(), all, 0.3, WithAllowDegraded(true))
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded query error = %v, want ErrDegraded", err)
	}
	var derr *DegradedError
	if !errors.As(err, &derr) {
		t.Fatalf("degraded error is not a *DegradedError: %v", err)
	}
	if len(derr.Shards) != 1 || derr.Shards[0] != dead {
		t.Fatalf("DegradedError.Shards = %v, want [%d]", derr.Shards, dead)
	}
	if len(res) == 0 {
		t.Fatal("degraded query returned no partial results")
	}
	for _, r := range res {
		prob, ok := baseIDs[r.ID]
		if !ok || prob != r.Prob {
			t.Fatalf("degraded result %d (P=%v) not in the clean baseline", r.ID, r.Prob)
		}
		if st.shardIndex(r.ID) == dead {
			t.Fatalf("degraded result %d is routed to the dead shard %d", r.ID, dead)
		}
	}

	// NN follows the same contract.
	nns, _, err := st.NearestNeighbors(context.Background(), Pt(500, 500), 5, WithAllowDegraded(true))
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded NN error = %v, want ErrDegraded", err)
	}
	if len(nns) == 0 {
		t.Fatal("degraded NN returned no partial neighbors")
	}
	for _, n := range nns {
		if st.shardIndex(n.ID) == dead {
			t.Fatalf("degraded neighbor %d is routed to the dead shard", n.ID)
		}
	}

	// Every shard dead → fatal even with the option.
	for i, cs := range stores {
		if i != dead {
			cs.MustAddRule(pagefile.ChaosRule{Op: pagefile.OpRead, Fault: pagefile.FaultPermanent, Sticky: true})
		}
	}
	if _, _, err := st.Search(context.Background(), all, 0.3, WithAllowDegraded(true)); err == nil {
		t.Fatal("query with every shard dead succeeded")
	} else if errors.Is(err, ErrDegraded) {
		t.Fatalf("all-shards-dead query downgraded to ErrDegraded: %v", err)
	}
}

// TestCloseDiscardIdempotentAllVariants double-Closes and cross-calls
// Close/Discard on every index variant; repeated teardown must be a nil
// no-op, including the group-commit timer's.
func TestCloseDiscardIdempotentAllVariants(t *testing.T) {
	mk := map[string]func() (Index, error){
		"tree": func() (Index, error) { return NewTree(Config{Dimensions: 2}) },
		"concurrent": func() (Index, error) {
			return NewConcurrentTree(Config{Dimensions: 2, GroupCommitInterval: time.Millisecond})
		},
		"sharded": func() (Index, error) { return NewShardedTree(2, Config{Dimensions: 2}) },
	}
	type discarder interface{ Discard() error }
	for name, build := range mk {
		idx, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := idx.Insert(1, UniformCircle(Pt(10, 10), 5)); err != nil {
			t.Fatalf("%s insert: %v", name, err)
		}
		if err := idx.Close(); err != nil {
			t.Fatalf("%s close: %v", name, err)
		}
		if err := idx.Close(); err != nil {
			t.Fatalf("%s second close: %v", name, err)
		}
		if err := idx.(discarder).Discard(); err != nil {
			t.Fatalf("%s discard after close: %v", name, err)
		}

		idx, err = build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := idx.(discarder).Discard(); err != nil {
			t.Fatalf("%s discard: %v", name, err)
		}
		if err := idx.Close(); err != nil {
			t.Fatalf("%s close after discard: %v", name, err)
		}
	}
}

// TestWriteBatchRollbackUnderWriteFaults fails a batch's commit with an
// injected permanent write fault and checks the rollback contract: the
// index reverts to the pre-batch epoch and stays fully usable.
func TestWriteBatchRollbackUnderWriteFaults(t *testing.T) {
	var chaos *pagefile.ChaosStore
	ct, err := NewConcurrentTree(Config{
		Dimensions:       2,
		ExactRefinement:  true,
		BufferPages:      4,
		NodeCacheEntries: -1,
		WrapStore: func(s pagefile.Store) pagefile.Store {
			chaos = pagefile.NewChaosStore(s, 19)
			return chaos
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()
	if err := ct.BulkLoad(shardedFixtureObjects(100, 23)); err != nil {
		t.Fatal(err)
	}
	all := Box(Pt(0, 0), Pt(1000, 1000))
	baseline, _, err := ct.Search(context.Background(), all, 0.3)
	if err != nil {
		t.Fatal(err)
	}

	boom := chaos.MustAddRule(pagefile.ChaosRule{Op: pagefile.OpWrite, Fault: pagefile.FaultPermanent, Countdown: -1})
	boom.Arm(0)
	err = ct.WriteBatch(func(w BatchWriter) error {
		for i := int64(0); i < 20; i++ {
			if err := w.Insert(5_000+i, UniformCircle(Pt(float64(40*i)+20, 700), 12)); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		t.Fatal("batch with a failing write committed")
	}
	if boom.Triggered() == 0 {
		t.Fatal("write fault never fired — the batch failed for another reason")
	}

	if got := ct.Len(); got != 100 {
		t.Fatalf("len after rolled-back batch = %d, want 100", got)
	}
	after, _, err := ct.Search(context.Background(), all, 0.3)
	if err != nil {
		t.Fatalf("query after rollback: %v", err)
	}
	if len(after) != len(baseline) {
		t.Fatalf("results after rollback: %d, want %d", len(after), len(baseline))
	}
	if err := ct.CheckInvariants(); err != nil {
		t.Fatalf("invariants after rollback: %v", err)
	}

	// The rule is spent; the same batch must now commit.
	err = ct.WriteBatch(func(w BatchWriter) error {
		for i := int64(0); i < 20; i++ {
			if err := w.Insert(5_000+i, UniformCircle(Pt(float64(40*i)+20, 700), 12)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("retried batch: %v", err)
	}
	if got := ct.Len(); got != 120 {
		t.Fatalf("len after retried batch = %d, want 120", got)
	}
}

// TestCloseRetriesItsOwnWrites: the cancelled context Close binds to the
// retry layer (so no reader sits out a backoff through teardown) must not
// be in force for Close's own final commit — a transient fault on one of
// its writes is retried like any other, not surfaced.
func TestCloseRetriesItsOwnWrites(t *testing.T) {
	var chaos *pagefile.ChaosStore
	cfg := faultTestConfig(filepath.Join(t.TempDir(), "close.utree"))
	cfg.WrapStore = func(s pagefile.Store) pagefile.Store {
		chaos = pagefile.NewChaosStore(s, 1)
		return chaos
	}
	tr, err := NewTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(1, UniformCircle(Pt(500, 500), 10)); err != nil {
		t.Fatal(err)
	}
	rule := chaos.MustAddRule(pagefile.ChaosRule{Op: pagefile.OpWrite, Fault: pagefile.FaultTransient, Countdown: -1})
	rule.Arm(0) // the very next write, which is Close's
	if err := tr.Close(); err != nil {
		t.Fatalf("close under one transient write fault: %v", err)
	}
	if rule.Triggered() != 1 {
		t.Fatalf("fault fired %d times, want 1: Close wrote nothing?", rule.Triggered())
	}
}

// TestFaultedQueriesLeakNothing hammers queries with a mix of absorbed
// transient faults and hard failures, then checks the error paths released
// everything: no leaked snapshot pins, the reclaimer still drains, and no
// goroutines outlive Close.
func TestFaultedQueriesLeakNothing(t *testing.T) {
	baseline := runtime.NumGoroutine()

	var chaos *pagefile.ChaosStore
	cfg := faultTestConfig(filepath.Join(t.TempDir(), "leak.utree"))
	cfg.ReclaimInterval = time.Millisecond
	// The scrubber runs too (its goroutine is part of the leak check), but
	// at a loose interval: each collection cycle briefly pins the committed
	// epoch, and at a 1ms cadence under injected faults (retry backoff on
	// the collection reads) those pins are held almost continuously — the
	// pins==0 poll below needs scrubber-idle windows to observe.
	cfg.ScrubInterval = 20 * time.Millisecond
	cfg.WrapStore = func(s pagefile.Store) pagefile.Store {
		chaos = pagefile.NewChaosStore(s, 29)
		return chaos
	}
	ct, err := NewConcurrentTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ct.BulkLoad(shardedFixtureObjects(300, 31)); err != nil {
		t.Fatal(err)
	}
	chaos.MustAddRule(pagefile.ChaosRule{Op: pagefile.OpAny, Fault: pagefile.FaultTransient, Prob: 0.05})
	hard := chaos.MustAddRule(pagefile.ChaosRule{Op: pagefile.OpRead, Fault: pagefile.FaultPermanent, Countdown: -1})

	queries := shardedFixtureQueries(10, 33)
	failures := 0
	for round := 0; round < 8; round++ {
		hard.Arm(0) // one hard failure somewhere in this round
		for _, q := range queries {
			if _, _, err := ct.Search(context.Background(), q.Rect, q.Prob); err != nil {
				failures++
			}
		}
	}
	if failures == 0 {
		t.Fatal("no query failed — the hard-fault paths were never exercised")
	}

	// Error paths must have released their snapshot pins.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, pins, _ := ct.GCStats(); pins == 0 {
			break
		}
		if time.Now().After(deadline) {
			_, pins, _ := ct.GCStats()
			t.Fatalf("%d snapshot pins leaked by faulted queries", pins)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// With the hard rule spent, the index still works end to end and the
	// background reclaimer still drains garbage.
	if err := ct.WriteBatch(func(w BatchWriter) error {
		return w.Insert(9_999, UniformCircle(Pt(500, 500), 10))
	}); err != nil {
		t.Fatalf("write after faulted queries: %v", err)
	}
	for {
		info := ct.GCInfo()
		if info.PendingPages+info.PendingEpochs == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("reclaimer stalled after faults: %+v", ct.GCInfo())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := ct.CheckInvariants(); err != nil {
		t.Fatalf("invariants after faulted workload: %v", err)
	}
	if err := ct.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	for i := 0; i < 200; i++ {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutine leak: %d alive, baseline %d", runtime.NumGoroutine(), baseline)
}
