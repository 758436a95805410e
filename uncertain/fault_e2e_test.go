package uncertain

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/pagefile"
)

// End-to-end fault-tolerance tests: chaos injection under the full index
// stack (checksummed file store → chaos → versioning → buffer pool →
// tree), checking the user-visible contract — an I/O fault fails the
// operation that hit it and nothing else, corruption is typed and
// quarantined, a dead shard fails a sharded query whole — plus resource
// hygiene on every error path. Answers are compared with a fault-free twin
// exactly: IDs, probabilities and validated flags.

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
	}
}

// untilAnswered re-issues op while it fails with pagefile.ErrInjected —
// the retry the error contract leaves to the caller — and fails the test
// on any other error. It reports how many attempts failed.
func untilAnswered(t *testing.T, what string, op func() error) (failed int) {
	t.Helper()
	for {
		err := op()
		if err == nil {
			return failed
		}
		if !errors.Is(err, pagefile.ErrInjected) {
			t.Fatalf("%s: %v, want nil or ErrInjected", what, err)
		}
		if failed++; failed == 50 {
			t.Fatalf("%s: still failing after %d attempts: %v", what, failed, err)
		}
	}
}

// TestIOFaultsSurfaceAndHeal runs a workload under a 1% I/O fault on every
// store operation. Nothing retries: each query either fails with
// ErrInjected or answers exactly as a fault-free twin does, and re-issued it
// answers like the twin, so no cache kept a failed read. Each mutation
// either succeeds or fails with ErrInjected and leaves the tree as it was:
// the twin receives only the mutations that succeeded, and Len, the
// invariants and every answer match it. No page is quarantined for an I/O
// fault, and the file reopens to the twin's state.
func TestIOFaultsSurfaceAndHeal(t *testing.T) {
	objects := shardedFixtureObjects(300, 7)
	queries := shardedFixtureQueries(25, 8)
	dir := t.TempDir()

	clean, err := NewTree(faultTestConfig(filepath.Join(dir, "clean.utree")))
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()

	var chaos *pagefile.ChaosStore
	path := filepath.Join(dir, "faulty.utree")
	cfg := faultTestConfig(path)
	cfg.WrapStore = func(s pagefile.Store) pagefile.Store {
		chaos = pagefile.NewChaosStore(s, 3)
		return chaos
	}
	faulty, err := NewTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer faulty.Discard()
	for _, idx := range []*Tree{clean, faulty} {
		if err := idx.BulkLoad(objects); err != nil {
			t.Fatalf("bulk load: %v", err)
		}
		if err := idx.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
	}
	chaos.MustAddRule(pagefile.ChaosRule{Op: pagefile.OpAny, Fault: pagefile.FaultPermanent, Prob: 0.01})

	failedQueries := 0
	compare := func(phase string, tr *Tree) {
		t.Helper()
		for i, q := range queries {
			want, _, err := clean.Search(context.Background(), q.Rect, q.Prob)
			if err != nil {
				t.Fatalf("%s: clean query %d: %v", phase, i, err)
			}
			var got []Result
			failedQueries += untilAnswered(t, fmt.Sprintf("%s: query %d", phase, i), func() error {
				var err error
				got, _, err = tr.Search(context.Background(), q.Rect, q.Prob)
				return err
			})
			if !sameResults(got, want) {
				t.Fatalf("%s: query %d: %v, clean twin: %v", phase, i, sortByID(got), sortByID(want))
			}
		}
		untilAnswered(t, phase+": invariants", tr.CheckInvariants)
	}
	compare("before mutations", faulty)

	// A mutation reaches the twin once it succeeded on the faulty tree. When
	// it fails, the twin holds exactly the mutations that succeeded, and the
	// faulty tree must still match it; re-issued, the mutation must then
	// succeed, so the failure left no trace in the ID directory either.
	failedMutations := 0
	mutate := func(what string, op func(*Tree) error) {
		t.Helper()
		failedMutations += untilAnswered(t, what, func() error {
			err := op(faulty)
			if err != nil {
				if got, want := faulty.Len(), clean.Len(); got != want {
					t.Fatalf("%s failed (%v): Len %d, twin %d", what, err, got, want)
				}
				compare(what+" failed", faulty)
			}
			return err
		})
		if err := op(clean); err != nil {
			t.Fatalf("%s on the clean twin: %v", what, err)
		}
		if got, want := faulty.Len(), clean.Len(); got != want {
			t.Fatalf("after %s: Len %d, twin %d", what, got, want)
		}
	}
	for i := int64(0); i < 80; i++ {
		id, pdf := 10_000+i, UniformCircle(Pt(float64(12*i)+5, 500), 10)
		mutate(fmt.Sprintf("insert %d", id), func(tr *Tree) error { return tr.Insert(id, pdf) })
		if i%4 == 3 {
			victim := i * 3 // a bulk-loaded object
			mutate(fmt.Sprintf("delete %d", victim), func(tr *Tree) error { return tr.Delete(victim) })
		}
		if i%20 == 19 {
			compare(fmt.Sprintf("after %d inserts", i+1), faulty)
		}
	}

	t.Logf("%d faults injected: %d failed queries, %d failed mutations",
		chaos.InjectedCount(pagefile.FaultPermanent), failedQueries, failedMutations)
	if failedQueries == 0 || failedMutations == 0 {
		t.Fatalf("%d failed queries, %d failed mutations: a failure path was never exercised",
			failedQueries, failedMutations)
	}
	if h := faulty.Health(); h.QuarantinedPages != 0 {
		t.Fatalf("I/O faults quarantined pages: %+v", h.Quarantined)
	}

	// Every mutation that succeeded committed; the file holds the twin's
	// state whatever a fault did to the teardown.
	if err := faulty.Close(); err != nil && !errors.Is(err, pagefile.ErrInjected) {
		t.Fatalf("close: %v", err)
	}
	reopened, err := OpenTree(path, faultTestConfig(path))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer reopened.Close()
	compare("reopened", reopened)
	if got, want := reopened.Len(), clean.Len(); got != want {
		t.Fatalf("reopened: Len %d, twin %d", got, want)
	}
}

// TestBitFlipTypedErrorAndQuarantine checks acceptance property (b): a
// bit flip under the checksummed store surfaces as ErrChecksum/ErrBadPage
// — never as data — and the damaged page is quarantined so later reads
// fail fast with the recorded cause.
func TestBitFlipTypedErrorAndQuarantine(t *testing.T) {
	t.Run("one flip", testOneBitFlip)
	t.Run("random flips", testRandomBitFlips)
}

// testOneBitFlip flips one bit under the next read and follows the page
// from the failed query into quarantine.
func testOneBitFlip(t *testing.T) {
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

// testRandomBitFlips flips a random bit under 1% of reads across a query
// workload: every query either answers exactly as a clean twin does or
// fails typed, and the damage is seen — as a typed error during the
// queries, or as a quarantined page after one Scrub.
func testRandomBitFlips(t *testing.T) {
	objects := shardedFixtureObjects(300, 7)
	queries := shardedFixtureQueries(100, 8)
	dir := t.TempDir()
	clean, err := NewTree(faultTestConfig(filepath.Join(dir, "clean.utree")))
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	var chaos *pagefile.ChaosStore
	cfg := faultTestConfig(filepath.Join(dir, "flips.utree"))
	cfg.WrapStore = func(s pagefile.Store) pagefile.Store {
		chaos = pagefile.NewChaosStore(s, 5)
		return chaos
	}
	tree, err := NewTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The medium ends up deliberately corrupt: tear down without committing.
	defer tree.Discard()
	for _, idx := range []*Tree{clean, tree} {
		if err := idx.BulkLoad(objects); err != nil {
			t.Fatal(err)
		}
		if err := idx.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	chaos.MustAddRule(pagefile.ChaosRule{Op: pagefile.OpRead, Fault: pagefile.FaultBitFlip, Prob: 0.01, Bit: -1})

	typed := 0
	for i, q := range queries {
		want, _, err := clean.Search(context.Background(), q.Rect, q.Prob)
		if err != nil {
			t.Fatalf("clean query %d: %v", i, err)
		}
		got, _, err := tree.Search(context.Background(), q.Rect, q.Prob)
		switch {
		case err == nil:
			if !sameResults(got, want) {
				t.Fatalf("query %d over flipped pages: %v, clean twin: %v — corruption was believed",
					i, sortByID(got), sortByID(want))
			}
		case errors.Is(err, ErrChecksum) || errors.Is(err, ErrBadPage):
			typed++
		default:
			t.Fatalf("query %d: corruption surfaced untyped: %v", i, err)
		}
	}
	verified, corrupt := tree.Scrub()
	t.Logf("%d flips, %d typed query errors; Scrub: %d verified, %d corrupt",
		chaos.InjectedCount(pagefile.FaultBitFlip), typed, verified, corrupt)
	if chaos.InjectedCount(pagefile.FaultBitFlip) == 0 {
		t.Fatal("chaos layer flipped no bits — the test exercised nothing")
	}
	if h := tree.Health(); typed == 0 && h.QuarantinedPages == 0 {
		t.Fatalf("%d bits flipped but no typed error and no quarantined page followed",
			chaos.InjectedCount(pagefile.FaultBitFlip))
	}
}

// TestScrubFindsSilentCorruption flips a bit directly on the medium — no
// query ever touches it — and checks that one Scrub call finds and
// quarantines exactly that page, while the same scrub of a clean twin finds
// nothing.
func TestScrubFindsSilentCorruption(t *testing.T) {
	dir := t.TempDir()
	clean, err := NewTree(faultTestConfig(filepath.Join(dir, "clean.utree")))
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	var base pagefile.Corrupter
	cfg := faultTestConfig(filepath.Join(dir, "scrub.utree"))
	cfg.WrapStore = func(s pagefile.Store) pagefile.Store {
		base = s.(pagefile.Corrupter)
		return s
	}
	tree, err := NewTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Discard()
	for _, idx := range []*Tree{clean, tree} {
		if err := idx.BulkLoad(shardedFixtureObjects(200, 13)); err != nil {
			t.Fatal(err)
		}
		if err := idx.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	if verified, corrupt := clean.Scrub(); corrupt != 0 || verified == 0 {
		t.Fatalf("clean twin: Scrub() = (%d verified, %d corrupt), want (>0, 0)", verified, corrupt)
	}
	if h := clean.Health(); h.QuarantinedPages != 0 {
		t.Fatalf("clean scrub quarantined %+v", h.Quarantined)
	}

	reach, err := tree.inner.ReachablePages(nil)
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
	if verified, corrupt := tree.Scrub(); corrupt != 1 {
		t.Fatalf("Scrub() = (%d verified, %d corrupt) after corrupting page %d, want 1 corrupt", verified, corrupt, victim)
	}
	h := tree.Health()
	if h.QuarantinedPages != 1 || h.Quarantined[0].Page != victim {
		t.Fatalf("scrub quarantined %+v, corrupted page was %d", h.Quarantined, victim)
	}
}

// TestDeadShardFailsQuery corrupts every page one shard reads and checks
// that a sharded query fails whole: Search and NearestNeighbors return no
// results and a typed corruption error, never the other shards' answers
// passed off as the complete set. The queries reach every shard — the dead
// one's root box is never pruned — so the fault cannot hide behind shard
// pruning.
func TestDeadShardFailsQuery(t *testing.T) {
	const shards = 3
	var stores []*pagefile.ChaosStore
	cfg := faultTestConfig(filepath.Join(t.TempDir(), "dead.utree"))
	cfg.BufferPages = 1
	cfg.WrapStore = func(s pagefile.Store) pagefile.Store {
		cs := pagefile.NewChaosStore(s, int64(len(stores)))
		stores = append(stores, cs)
		return cs
	}
	st, err := NewSpatialShardedTree(shards, cfg, fixtureDomain)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Discard()
	if len(stores) != shards {
		t.Fatalf("WrapStore ran %d times for %d shards", len(stores), shards)
	}
	if err := st.BulkLoad(shardedFixtureObjects(400, 21)); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}

	all := Box(Pt(0, 0), Pt(1000, 1000))
	if _, stats, err := st.Search(context.Background(), all, 0.3); err != nil {
		t.Fatal(err)
	} else if stats.ShardsPruned != 0 {
		t.Fatalf("%d shards pruned: the query must reach the dead shard", stats.ShardsPruned)
	}

	// From here on every page the dead shard reads from its file has a bit
	// flipped on the medium first, so the read fails its checksum; a page
	// found corrupt is quarantined and fails fast after that.
	const dead = 1
	stores[dead].MustAddRule(pagefile.ChaosRule{Op: pagefile.OpRead, Fault: pagefile.FaultBitFlip, Sticky: true, Bit: -1})
	corrupt := func(err error) bool { return errors.Is(err, ErrChecksum) || errors.Is(err, ErrBadPage) }

	res, _, err := st.Search(context.Background(), all, 0.3)
	if !corrupt(err) {
		t.Fatalf("query with a dead shard: err = %v, want ErrChecksum or ErrBadPage", err)
	}
	if len(res) != 0 {
		t.Fatalf("query with a dead shard returned %d results", len(res))
	}

	// q lies in the dead shard's slab, so that shard ranks first and is
	// always launched.
	nns, _, err := st.NearestNeighbors(context.Background(), Pt(500, 500), 5)
	if !corrupt(err) {
		t.Fatalf("NN with a dead shard: err = %v, want ErrChecksum or ErrBadPage", err)
	}
	if len(nns) != 0 {
		t.Fatalf("NN with a dead shard returned %d neighbors", len(nns))
	}
}

// TestCloseDiscardIdempotentAllVariants double-Closes and cross-calls
// Close/Discard on every index variant; repeated teardown must be a nil
// no-op.
func TestCloseDiscardIdempotentAllVariants(t *testing.T) {
	mk := map[string]func() (Index, error){
		"tree":    func() (Index, error) { return NewTree(Config{Dimensions: 2}) },
		"sharded": func() (Index, error) { return NewSpatialShardedTree(2, Config{Dimensions: 2}, fixtureDomain) },
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

// TestCloseWriteFaultKeepsLastEpoch: a write fault on Close's final
// commit is returned by Close, a second Close returns nil, and the file
// reopens at the last committed epoch with every object.
func TestCloseWriteFaultKeepsLastEpoch(t *testing.T) {
	objects := shardedFixtureObjects(120, 41)
	var chaos *pagefile.ChaosStore
	path := filepath.Join(t.TempDir(), "close.utree")
	cfg := faultTestConfig(path)
	cfg.WrapStore = func(s pagefile.Store) pagefile.Store {
		chaos = pagefile.NewChaosStore(s, 1)
		return chaos
	}
	tr, err := NewTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for id, pdf := range objects {
		if err := tr.Insert(id, pdf); err != nil {
			t.Fatal(err)
		}
	}
	all := Box(Pt(0, 0), Pt(1000, 1000))
	want, _, err := tr.Search(context.Background(), all, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	epoch := tr.Epoch()

	rule := chaos.MustAddRule(pagefile.ChaosRule{Op: pagefile.OpWrite, Fault: pagefile.FaultPermanent, Countdown: -1})
	rule.Arm(0) // the very next write, which is Close's
	if err := tr.Close(); !errors.Is(err, pagefile.ErrInjected) {
		t.Fatalf("close under a write fault: %v, want ErrInjected", err)
	}
	if rule.Triggered() != 1 {
		t.Fatalf("fault fired %d times, want 1: Close wrote nothing?", rule.Triggered())
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}

	rt, err := OpenTree(path, faultTestConfig(path))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer rt.Close()
	if rt.Epoch() != epoch {
		t.Fatalf("reopened at epoch %d, last commit was %d", rt.Epoch(), epoch)
	}
	if err := rt.CheckInvariants(); err != nil {
		t.Fatalf("reopened invariants: %v", err)
	}
	if rt.Len() != len(objects) {
		t.Fatalf("reopened Len %d, want %d", rt.Len(), len(objects))
	}
	for id := range objects {
		if !rt.holds(id) {
			t.Fatalf("object %d lost", id)
		}
	}
	got, _, err := rt.Search(context.Background(), all, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResults(got, want) {
		t.Fatalf("reopened answer %v, before Close %v", sortByID(got), sortByID(want))
	}
}

// TestFaultedQueriesLeakNothing hammers queries with hard I/O failures,
// then checks the error paths released
// everything: no leaked snapshot pins, commits still drain garbage, and no
// goroutine outlives the calls that started it — the count is back at
// baseline while the tree is still open.
func TestFaultedQueriesLeakNothing(t *testing.T) {
	baseline := runtime.NumGoroutine()

	var chaos *pagefile.ChaosStore
	cfg := faultTestConfig(filepath.Join(t.TempDir(), "leak.utree"))
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
	if pins := ct.GCInfo().Pins; pins != 0 {
		t.Fatalf("%d snapshot pins leaked by faulted queries", pins)
	}

	// With the hard rule spent, the index still works end to end and its
	// commit drains the garbage.
	if err := ct.WriteBatch(func(w BatchWriter) error {
		return w.Insert(9_999, UniformCircle(Pt(500, 500), 10))
	}); err != nil {
		t.Fatalf("write after faulted queries: %v", err)
	}
	if info := ct.GCInfo(); info.PendingPages+info.PendingEpochs != 0 {
		t.Fatalf("garbage left after the commit: %+v", info)
	}
	if err := ct.CheckInvariants(); err != nil {
		t.Fatalf("invariants after faulted workload: %v", err)
	}

	// Still open: nothing the tree started may be running. Goroutines that
	// were joined can take a moment to unwind, hence the wait.
	for i := 0; i < 200 && runtime.NumGoroutine() > baseline; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("goroutine leak before Close: %d alive, baseline %d", n, baseline)
	}
	if err := ct.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}
