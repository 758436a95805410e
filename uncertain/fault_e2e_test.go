package uncertain

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pagefile"
	"repro/internal/pagefile/chaos"
)

// End-to-end fault-tolerance tests: chaos injection under the full index
// stack (checksummed file store → chaos → tree), checking
// the user-visible contract — an I/O fault fails the operation that hit it
// and nothing else, corruption is typed and fails every read that reaches
// it but no other, a dead shard fails a sharded query whole — plus resource
// hygiene on every error path. Answers are compared with a fault-free twin
// exactly: IDs, probabilities and validated flags.

// faultTestConfig is the shared shape of these tests: no decoded-node
// cache, so queries genuinely hit the store and the fault machinery under
// test.
func faultTestConfig(path string) Config {
	return Config{
		Dimensions:       2,
		NodeCacheEntries: -1,
		Path:             path,
	}
}

// untilAnswered re-issues op while it fails with chaos.ErrInjected —
// the retry the error contract leaves to the caller — and fails the test
// on any other error. It reports how many attempts failed.
func untilAnswered(t *testing.T, what string, op func() error) (failed int) {
	t.Helper()
	for {
		err := op()
		if err == nil {
			return failed
		}
		if !errors.Is(err, chaos.ErrInjected) {
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
// invariants and every answer match it, and the file reopens to the twin's
// state.
func TestIOFaultsSurfaceAndHeal(t *testing.T) {
	objects := shardedFixtureObjects(300, 7)
	queries := shardedFixtureQueries(25, 8)
	dir := t.TempDir()

	clean, err := NewTree(faultTestConfig(filepath.Join(dir, "clean.utree")))
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()

	var inj *chaos.Store
	path := filepath.Join(dir, "faulty.utree")
	cfg := faultTestConfig(path)
	cfg.WrapStore = func(s pagefile.Store) pagefile.Store {
		inj = chaos.New(s, 3)
		return inj
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
	inj.MustAddRule(chaos.Rule{Op: chaos.OpAny, Fault: chaos.FaultPermanent, Prob: 0.01})

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
		assertDirectory(t, phase, tr)
	}
	compare("before mutations", faulty)

	// A mutation reaches the twin once it succeeded on the faulty tree. When
	// it fails, the twin holds exactly the mutations that succeeded, and the
	// faulty tree must still match it; re-issued, the mutation must then
	// succeed, so the failure left no trace in the ID directory either. The
	// directory must hold exactly the leaves' IDs and record addresses after
	// every attempt.
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
		assertDirectory(t, "after "+what, faulty)
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
		inj.InjectedCount(chaos.FaultPermanent), failedQueries, failedMutations)
	if failedQueries == 0 || failedMutations == 0 {
		t.Fatalf("%d failed queries, %d failed mutations: a failure path was never exercised",
			failedQueries, failedMutations)
	}

	// Every mutation that succeeded committed; the file holds the twin's
	// state whatever a fault did to the teardown.
	if err := faulty.Close(); err != nil && !errors.Is(err, chaos.ErrInjected) {
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

// TestBitFlipTypedError checks acceptance property (b): a bit flip under
// the checksummed store surfaces as ErrChecksum/ErrBadPage — never as data
// — and a query re-issued over the damaged page fails typed again.
func TestBitFlipTypedError(t *testing.T) {
	t.Run("one flip", testOneBitFlip)
	t.Run("random flips", testRandomBitFlips)
}

// corruptPage returns the page a corruption error names.
func corruptPage(err error) (pagefile.PageID, bool) {
	var ce *pagefile.ChecksumError
	if errors.As(err, &ce) {
		return ce.Page, true
	}
	var be *pagefile.BadPageError
	if errors.As(err, &be) {
		return be.Page, true
	}
	return pagefile.InvalidPage, false
}

// testOneBitFlip flips one bit on the medium under the next read and
// follows the page through a second query, which finds the damage again by
// re-verifying the page.
func testOneBitFlip(t *testing.T) {
	var inj *chaos.Store
	cfg := faultTestConfig(filepath.Join(t.TempDir(), "flip.utree"))
	cfg.WrapStore = func(s pagefile.Store) pagefile.Store {
		inj = chaos.New(s, 5)
		return inj
	}
	tree, err := NewTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Discard()
	flip, err := inj.AddRule(chaos.Rule{Op: chaos.OpRead, Fault: chaos.FaultBitFlip, Countdown: -1, Bit: 12})
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
	first, ok := corruptPage(err)
	if !ok {
		t.Fatalf("corruption surfaced untyped: %v", err)
	}

	// The rule is spent; the second failure comes from the medium alone.
	_, _, err = tree.Search(context.Background(), all, 0.3)
	if err == nil {
		t.Fatal("second query over the flipped page succeeded")
	}
	if again, ok := corruptPage(err); !ok || again != first {
		t.Fatalf("re-issued query: %v, want a typed error for page %d", err, first)
	}
	if n := flip.Triggered(); n != 1 {
		t.Fatalf("flip rule fired %d times, want 1", n)
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
// queries, or as a corrupt page one Scrub reports.
func testRandomBitFlips(t *testing.T) {
	objects := shardedFixtureObjects(300, 7)
	queries := shardedFixtureQueries(100, 8)
	dir := t.TempDir()
	clean, err := NewTree(faultTestConfig(filepath.Join(dir, "clean.utree")))
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	var inj *chaos.Store
	cfg := faultTestConfig(filepath.Join(dir, "flips.utree"))
	cfg.WrapStore = func(s pagefile.Store) pagefile.Store {
		inj = chaos.New(s, 5)
		return inj
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
	inj.MustAddRule(chaos.Rule{Op: chaos.OpRead, Fault: chaos.FaultBitFlip, Prob: 0.01, Bit: -1})

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
		inj.InjectedCount(chaos.FaultBitFlip), typed, verified, len(corrupt))
	if inj.InjectedCount(chaos.FaultBitFlip) == 0 {
		t.Fatal("chaos layer flipped no bits — the test exercised nothing")
	}
	for _, err := range corrupt {
		if _, ok := corruptPage(err); !ok {
			t.Fatalf("Scrub reported an error naming no page: %v", err)
		}
	}
	if typed == 0 && len(corrupt) == 0 {
		t.Fatalf("%d bits flipped but no typed error and no corrupt page followed",
			inj.InjectedCount(chaos.FaultBitFlip))
	}
}

// flakyReadStore fails the read after Arm with a checksum error and reads
// clean again from then on: corruption seen once, on a page whose stored
// bytes are fine.
type flakyReadStore struct {
	pagefile.Store
	armed atomic.Bool
}

func (s *flakyReadStore) Arm() { s.armed.Store(true) }

func (s *flakyReadStore) Read(id pagefile.PageID, buf []byte) error {
	if s.armed.CompareAndSwap(true, false) {
		return &pagefile.ChecksumError{Page: id, Want: 1, Got: 2}
	}
	return s.Store.Read(id, buf)
}

// TestTransientChecksumFailureHeals: one read fails its checksum and the
// page then reads clean. The query that hit the failure returns
// ErrChecksum; nothing remembers the page, so the query re-issued answers
// exactly as a clean twin does — with the decoded-node cache off and on.
// A query whose pages all came from the node cache never reaches the armed
// read and must answer like the twin straight away.
func TestTransientChecksumFailureHeals(t *testing.T) {
	objects := shardedFixtureObjects(300, 17)
	queries := shardedFixtureQueries(10, 18)
	for _, cache := range []int{-1, 0} {
		t.Run(fmt.Sprintf("nodecache=%d", cache), func(t *testing.T) {
			dir := t.TempDir()
			cleanCfg := faultTestConfig(filepath.Join(dir, "clean.utree"))
			cleanCfg.NodeCacheEntries = cache
			clean, err := NewTree(cleanCfg)
			if err != nil {
				t.Fatal(err)
			}
			defer clean.Close()
			var flaky *flakyReadStore
			cfg := faultTestConfig(filepath.Join(dir, "flaky.utree"))
			cfg.NodeCacheEntries = cache
			cfg.WrapStore = func(s pagefile.Store) pagefile.Store {
				flaky = &flakyReadStore{Store: s}
				return flaky
			}
			tree, err := NewTree(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer tree.Close()
			for _, idx := range []*Tree{clean, tree} {
				if err := idx.BulkLoad(objects); err != nil {
					t.Fatal(err)
				}
				if err := idx.Flush(); err != nil {
					t.Fatal(err)
				}
			}

			failed := 0
			for i, q := range queries {
				want, _, err := clean.Search(context.Background(), q.Rect, q.Prob)
				if err != nil {
					t.Fatalf("clean query %d: %v", i, err)
				}
				flaky.Arm()
				got, _, err := tree.Search(context.Background(), q.Rect, q.Prob)
				if flaky.armed.CompareAndSwap(true, false) {
					// Served without a store read.
					if err != nil || !sameResults(got, want) {
						t.Fatalf("query %d without a store read: %v (err %v), clean twin: %v", i, sortByID(got), err, sortByID(want))
					}
					continue
				}
				if !errors.Is(err, ErrChecksum) {
					t.Fatalf("query %d over the failed read: err %v, want ErrChecksum", i, err)
				}
				failed++
				got, _, err = tree.Search(context.Background(), q.Rect, q.Prob)
				if err != nil {
					t.Fatalf("query %d re-issued: %v", i, err)
				}
				if !sameResults(got, want) {
					t.Fatalf("query %d re-issued: %v, clean twin: %v", i, sortByID(got), sortByID(want))
				}
			}
			if failed == 0 {
				t.Fatal("no query reached the failing read — the test exercised nothing")
			}
			t.Logf("%d of %d queries hit the failing read and healed", failed, len(queries))
		})
	}
}

// TestScrubFindsSilentCorruption flips a bit directly on the medium — no
// query ever touches it — once in a node page and once in a data page, and
// checks that one Scrub call reports exactly that page, while the same
// scrub of a clean twin reports none.
func TestScrubFindsSilentCorruption(t *testing.T) {
	for _, kind := range []string{"node", "data"} {
		t.Run(kind, func(t *testing.T) { testScrubFinds(t, kind) })
	}
}

func testScrubFinds(t *testing.T, kind string) {
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
	objs := shardedFixtureObjects(200, 13)
	for _, idx := range []*Tree{clean, tree} {
		if err := idx.BulkLoad(objs); err != nil {
			t.Fatal(err)
		}
		if err := idx.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	if verified, corrupt := clean.Scrub(); len(corrupt) != 0 || verified == 0 {
		t.Fatalf("clean twin: Scrub() = (%d verified, %v corrupt), want (>0, none)", verified, corrupt)
	}

	// Reachable pages are node pages, the data pages records live on and
	// the metadata page.
	dataPages := make(map[pagefile.PageID]bool)
	for id := range objs {
		addr, _ := tree.inner.RecordAddr(id)
		dataPages[addr.Page] = true
	}
	reach, err := tree.inner.ReachablePages()
	if err != nil {
		t.Fatal(err)
	}
	var victim pagefile.PageID
	for p := range reach {
		isData := dataPages[p]
		isNode := !isData && p != tree.inner.MetaPage()
		if (kind == "data" && isData || kind == "node" && isNode) && p > victim {
			victim = p
		}
	}
	if victim == 0 {
		t.Fatalf("fixture has no %s page", kind)
	}
	if err := base.CorruptPayload(victim, 3); err != nil {
		t.Fatal(err)
	}
	verified, corrupt := tree.Scrub()
	if len(corrupt) != 1 {
		t.Fatalf("Scrub() = (%d verified, %v) after corrupting %s page %d, want 1 corrupt", verified, corrupt, kind, victim)
	}
	if p, ok := corruptPage(corrupt[0]); !ok || p != victim {
		t.Fatalf("Scrub reported %v, corrupted %s page was %d", corrupt[0], kind, victim)
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
	var stores []*chaos.Store
	cfg := faultTestConfig(filepath.Join(t.TempDir(), "dead.utree"))
	cfg.WrapStore = func(s pagefile.Store) pagefile.Store {
		cs := chaos.New(s, int64(len(stores)))
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
	// flipped on the medium first, so the read fails its checksum.
	const dead = 1
	stores[dead].MustAddRule(chaos.Rule{Op: chaos.OpRead, Fault: chaos.FaultBitFlip, Sticky: true, Bit: -1})
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
	var inj *chaos.Store
	ct, err := NewConcurrentTree(Config{
		Dimensions:       2,
		NodeCacheEntries: -1,
		WrapStore: func(s pagefile.Store) pagefile.Store {
			inj = chaos.New(s, 19)
			return inj
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

	boom := inj.MustAddRule(chaos.Rule{Op: chaos.OpWrite, Fault: chaos.FaultPermanent, Countdown: -1})
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
	assertDirectory(t, "after the rolled-back batch", ct)
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
	assertDirectory(t, "after the retried batch", ct)
}

// TestCloseWriteFaultKeepsLastEpoch: Close commits nothing — every
// mutation already committed — so a write fault armed before Close never
// fires, a second Close returns nil, and the file reopens at the last
// committed epoch with every object and the same answers.
func TestCloseWriteFaultKeepsLastEpoch(t *testing.T) {
	objects := shardedFixtureObjects(120, 41)
	var inj *chaos.Store
	path := filepath.Join(t.TempDir(), "close.utree")
	cfg := faultTestConfig(path)
	cfg.WrapStore = func(s pagefile.Store) pagefile.Store {
		inj = chaos.New(s, 1)
		return inj
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

	rule := inj.MustAddRule(chaos.Rule{Op: chaos.OpWrite, Fault: chaos.FaultPermanent, Countdown: -1})
	rule.Arm(0) // the very next write, if Close made one
	if err := tr.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if n := rule.Triggered(); n != 0 {
		t.Fatalf("Close wrote: the armed write fault fired %d times", n)
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

// TestReadOnlyOpenLeavesFileUnchanged: opening a file, querying it,
// checking its records and closing it writes nothing — the file is
// byte-identical afterwards and reopens at the same epoch.
func TestReadOnlyOpenLeavesFileUnchanged(t *testing.T) {
	path := filepath.Join(t.TempDir(), "readonly.utree")
	tr, err := NewTree(faultTestConfig(path))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.BulkLoad(shardedFixtureObjects(500, 43)); err != nil {
		t.Fatal(err)
	}
	for id := int64(0); id < 20; id++ {
		if err := tr.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	rt, err := OpenTree(path, faultTestConfig(path))
	if err != nil {
		t.Fatal(err)
	}
	epoch := rt.Epoch()
	if _, _, err := rt.Search(context.Background(), Box(Pt(0, 0), Pt(600, 600)), 0.4); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rt.NearestNeighbors(context.Background(), Pt(500, 500), 5); err != nil {
		t.Fatal(err)
	}
	if err := rt.CheckRecords(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("a read-only open changed the file (%d → %d bytes)", len(before), len(after))
	}

	rt, err = OpenTree(path, faultTestConfig(path))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if rt.Epoch() != epoch {
		t.Fatalf("reopened at epoch %d, the read-only open saw %d", rt.Epoch(), epoch)
	}
}

// TestFaultedQueriesLeakNothing hammers queries with hard I/O failures,
// then checks the error paths released
// everything: no leaked snapshot pins, commits still drain garbage, and no
// goroutine outlives the calls that started it — the count is back at
// baseline while the tree is still open.
func TestFaultedQueriesLeakNothing(t *testing.T) {
	baseline := runtime.NumGoroutine()

	var inj *chaos.Store
	cfg := faultTestConfig(filepath.Join(t.TempDir(), "leak.utree"))
	cfg.WrapStore = func(s pagefile.Store) pagefile.Store {
		inj = chaos.New(s, 29)
		return inj
	}
	ct, err := NewConcurrentTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ct.BulkLoad(shardedFixtureObjects(300, 31)); err != nil {
		t.Fatal(err)
	}
	hard := inj.MustAddRule(chaos.Rule{Op: chaos.OpRead, Fault: chaos.FaultPermanent, Countdown: -1})

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
