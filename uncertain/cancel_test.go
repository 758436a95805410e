package uncertain

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/pagefile"
	"repro/internal/pagefile/chaos"
)

// This file is the correctness contract of the context-first query API:
// cancellation must take effect within a couple of page latencies and must
// not leak goroutines or corrupt the index; the batch engine must
// propagate cancellation to in-flight queries instead of letting a failed
// batch run to completion.

// slowStore is the page latency of these tests: a chaos rule stalling every
// page operation of cs, installed once the index is built.
func slowStore(cs *chaos.Store, latency time.Duration) {
	cs.MustAddRule(chaos.Rule{Op: chaos.OpAny, Fault: chaos.FaultLatency, Prob: 1, Latency: latency})
}

// cancelFixture builds a file-backed Tree whose physical page accesses
// cost `latency` each (from the end of the build on; 0 leaves the store
// fast).
func cancelFixture(t *testing.T, latency time.Duration) (*Tree, []RangeQuery) {
	t.Helper()
	var inj *chaos.Store
	ct, err := NewTree(Config{
		WrapStore: func(s pagefile.Store) pagefile.Store {
			inj = chaos.New(s, 1)
			return inj
		},
		Dimensions: 2,
		Path:       filepath.Join(t.TempDir(), "cancel.utree"),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ct.Close() })
	if err := ct.BulkLoad(shardedFixtureObjects(800, 61)); err != nil {
		t.Fatal(err)
	}
	if err := ct.Flush(); err != nil {
		t.Fatal(err)
	}
	if latency > 0 {
		slowStore(inj, latency)
	}
	return ct, shardedFixtureQueries(40, 62)
}

// waitGoroutines waits for the goroutine count to settle back to the
// baseline (small slack for runtime housekeeping goroutines).
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d alive, baseline %d", n, baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// searchFunc is a range-query entry point: Tree.Search or Snapshot.Search.
type searchFunc func(ctx context.Context, rect Rect, prob float64, opts ...QueryOption) ([]Result, Stats, error)

// nnFunc is a k-NN entry point: Tree.NearestNeighbors or
// Snapshot.NearestNeighbors.
type nnFunc func(ctx context.Context, q Point, k int, opts ...QueryOption) ([]Neighbor, NNStats, error)

// snapshotOf pins a snapshot of ct for the rest of the test.
func snapshotOf(t *testing.T, ct *Tree) *Snapshot {
	snap := ct.Snapshot()
	t.Cleanup(snap.Close)
	return snap
}

// TestSearchCancelMidTraversal is the headline cancellation contract: a
// file-backed query over 2 ms page latency, cancelled mid-traversal, must
// return context.Canceled within ~2 page latencies, leave no goroutines
// behind, and leave the index structurally intact and fully usable — on
// the tree and on a pinned snapshot alike.
func TestSearchCancelMidTraversal(t *testing.T) {
	entries := []struct {
		name   string
		search func(t *testing.T, ct *Tree) searchFunc
	}{
		{"Tree.Search", func(_ *testing.T, ct *Tree) searchFunc { return ct.Search }},
		{"Snapshot.Search", func(t *testing.T, ct *Tree) searchFunc { return snapshotOf(t, ct).Search }},
	}
	for _, e := range entries {
		t.Run(e.name, func(t *testing.T) {
			ct, _ := cancelFixture(t, 2*time.Millisecond)
			search := e.search(t, ct)
			baseline := runtime.NumGoroutine()

			// The whole-domain query touches far more pages than fit in the
			// 8-page pool: uncancelled it costs hundreds of milliseconds.
			big := Box(Pt(0, 0), Pt(1000, 1000))
			ctx, cancel := context.WithCancel(context.Background())
			var cancelledAt time.Time
			timer := time.AfterFunc(5*time.Millisecond, func() {
				cancelledAt = time.Now()
				cancel()
			})
			defer timer.Stop()

			res, stats, err := search(ctx, big, 0.3)
			returned := time.Now()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if cancelledAt.IsZero() {
				t.Fatal("query finished before the cancel fired; grow the fixture")
			}
			if lag := returned.Sub(cancelledAt); lag > 10*time.Millisecond {
				t.Fatalf("cancel-to-return took %v, want < 10ms (~2 page latencies)", lag)
			}
			if stats.Results != len(res) {
				t.Fatalf("partial stats.Results = %d, len(res) = %d", stats.Results, len(res))
			}
			waitGoroutines(t, baseline)

			// The index must stay sound and answer the same query fully.
			if err := ct.CheckInvariants(); err != nil {
				t.Fatalf("invariants after cancel: %v", err)
			}
			full, _, err := search(context.Background(), big, 0.3)
			if err != nil {
				t.Fatalf("query after cancel: %v", err)
			}
			if len(full) == 0 {
				t.Fatal("full query empty after cancel")
			}
			// The cancelled run's results must be a prefix of the full run's:
			// the traversal order is deterministic, the cancel only cut it.
			if len(res) > len(full) {
				t.Fatalf("partial run returned %d results, full run %d", len(res), len(full))
			}
			for i := range res {
				if res[i] != full[i] {
					t.Fatalf("partial result %d = %+v, full run has %+v", i, res[i], full[i])
				}
			}
		})
	}
}

// TestSearchDeadlineAlreadyPassed: a context that is dead on arrival must
// stop the query before any page is fetched.
func TestSearchDeadlineAlreadyPassed(t *testing.T) {
	ct, queries := cancelFixture(t, 0)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, stats, err := ct.Search(ctx, queries[0].Rect, queries[0].Prob)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if len(res) != 0 || stats.NodeAccesses != 0 {
		t.Fatalf("dead-on-arrival query did work: %d results, %d node accesses", len(res), stats.NodeAccesses)
	}
}

// TestNNCancel: the best-first NN traversal honors cancellation the same
// way (partial neighbors + ctx error + intact index), on the tree and on a
// pinned snapshot.
func TestNNCancel(t *testing.T) {
	entries := []struct {
		name string
		nn   func(t *testing.T, ct *Tree) nnFunc
	}{
		{"Tree.NearestNeighbors", func(_ *testing.T, ct *Tree) nnFunc { return ct.NearestNeighbors }},
		{"Snapshot.NearestNeighbors", func(t *testing.T, ct *Tree) nnFunc { return snapshotOf(t, ct).NearestNeighbors }},
	}
	for _, e := range entries {
		t.Run(e.name, func(t *testing.T) {
			ct, _ := cancelFixture(t, 2*time.Millisecond)
			nn := e.nn(t, ct)
			ctx, cancel := context.WithCancel(context.Background())
			time.AfterFunc(5*time.Millisecond, cancel)
			start := time.Now()
			_, _, err := nn(ctx, Pt(500, 500), 10)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if elapsed := time.Since(start); elapsed > 30*time.Millisecond {
				t.Fatalf("cancelled NN took %v", elapsed)
			}
			if err := ct.CheckInvariants(); err != nil {
				t.Fatalf("invariants after NN cancel: %v", err)
			}
		})
	}
}

// TestShardedCancel: cancelling a sharded query — range or k-NN — stops
// the shard being searched, skips the rest and returns the caller's
// context error, not a shard-wrapped one.
func TestShardedCancel(t *testing.T) {
	var inj []*chaos.Store // one per shard, built one after another
	st, err := NewSpatialShardedTree(4, Config{Dimensions: 2,
		WrapStore: func(s pagefile.Store) pagefile.Store {
			cs := chaos.New(s, 1)
			inj = append(inj, cs)
			return cs
		}}, fixtureDomain)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// 400 objects per shard are 12 leaves and a root, more than the 8-page
	// pool holds, so the query is still reading when the cancel lands.
	if err := st.BulkLoad(shardedFixtureObjects(1600, 71)); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, cs := range inj {
		slowStore(cs, 2*time.Millisecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(5*time.Millisecond, cancel)
	res, stats, err := st.Search(ctx, Box(Pt(0, 0), Pt(1000, 1000)), 0.3)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The partial-result contract holds across the shards: the merged
	// stats reflect the work the shards did before the cancel, and any
	// partial results are real answers (5 ms bought at least one ~2 ms
	// root read).
	if stats.NodeAccesses == 0 {
		t.Fatal("cancelled sharded query reported no work in its partial stats")
	}
	if stats.Results != len(res) {
		t.Fatalf("partial stats.Results = %d, len(res) = %d", stats.Results, len(res))
	}

	// The k-NN query hands the caller's context to each shard in turn.
	ctx, cancel = context.WithCancel(context.Background())
	time.AfterFunc(5*time.Millisecond, cancel)
	nns, nnStats, err := st.NearestNeighbors(ctx, Pt(500, 500), 10)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("NN: err = %v, want context.Canceled", err)
	}
	if nnStats.NodeAccesses == 0 {
		t.Fatal("cancelled sharded NN reported no work in its partial stats")
	}
	if len(nns) > 10 {
		t.Fatalf("cancelled sharded NN returned %d neighbours, k = 10", len(nns))
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatalf("invariants after sharded cancel: %v", err)
	}
}

// TestQueryOptions covers the per-query limit's prefix semantics, and the
// index's k-NN precision.
func TestQueryOptions(t *testing.T) {
	ct, err := NewConcurrentTree(Config{Dimensions: 2, MonteCarloSamples: 400})
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()
	if err := ct.BulkLoad(shardedFixtureObjects(600, 101)); err != nil {
		t.Fatal(err)
	}
	rect := Box(Pt(100, 100), Pt(900, 900))
	const prob = 0.3
	ctx := context.Background()

	full, _, err := ct.Search(ctx, rect, prob)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 10 {
		t.Fatalf("fixture too small: %d results", len(full))
	}

	t.Run("WithLimit", func(t *testing.T) {
		limited, _, err := ct.Search(ctx, rect, prob, WithLimit(5))
		if err != nil {
			t.Fatal(err)
		}
		if len(limited) != 5 {
			t.Fatalf("limit 5 returned %d results", len(limited))
		}
		for i := range limited {
			if limited[i] != full[i] {
				t.Fatalf("limited result %d = %+v, want prefix of full run (%+v)", i, limited[i], full[i])
			}
		}
	})

	t.Run("MonteCarloSamples", func(t *testing.T) {
		// A k-NN query's precision is the index's sample count. Range
		// refinement is exact and ignores it (see
		// TestRangeRefinementIgnoresSamplerConfig).
		coarseTree, err := NewTree(Config{Dimensions: 2, MonteCarloSamples: 10})
		if err != nil {
			t.Fatal(err)
		}
		defer coarseTree.Close()
		if err := coarseTree.BulkLoad(shardedFixtureObjects(600, 101)); err != nil {
			t.Fatal(err)
		}
		nn, _, err := ct.NearestNeighbors(ctx, Pt(500, 500), 10)
		if err != nil {
			t.Fatal(err)
		}
		coarse, _, err := coarseTree.NearestNeighbors(ctx, Pt(500, 500), 10)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(coarse, nn) {
			t.Fatal("10-sample k-NN gave the same expected distances as 400-sample")
		}
	})

	t.Run("NNWithLimit", func(t *testing.T) {
		nns, _, err := ct.NearestNeighbors(ctx, Pt(500, 500), 10, WithLimit(3))
		if err != nil {
			t.Fatal(err)
		}
		if len(nns) != 3 {
			t.Fatalf("NN limit 3 returned %d neighbors", len(nns))
		}
		fullNN, _, err := ct.NearestNeighbors(ctx, Pt(500, 500), 10)
		if err != nil {
			t.Fatal(err)
		}
		for i := range nns {
			if nns[i] != fullNN[i] {
				t.Fatalf("limited NN %d = %+v, full %+v", i, nns[i], fullNN[i])
			}
		}
	})
}

// TestEngineEarlyCancelLargeBatch is the QueryEngine leak-class
// regression: before the redesign, a batch error or cancellation only
// stopped *unstarted* tasks — everything in flight ran to completion. Now
// the batch context must abort in-flight queries mid-traversal, so an
// early-cancelled large batch over slow storage returns in milliseconds,
// not seconds.
func TestEngineEarlyCancelLargeBatch(t *testing.T) {
	ct, queries := cancelFixture(t, 2*time.Millisecond)
	baseline := runtime.NumGoroutine()

	// 200 slow queries ≈ many seconds of serial page stalls at 4 workers.
	batch := make([]RangeQuery, 0, 200)
	for len(batch) < 200 {
		batch = append(batch, queries...)
	}
	eng := NewQueryEngine(ct, EngineOptions{Workers: 4})
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(15*time.Millisecond, cancel)
	start := time.Now()
	out, stats, err := eng.SearchBatch(ctx, batch)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 200*time.Millisecond {
		t.Fatalf("early-cancelled batch took %v, want prompt abort (in-flight queries must observe ctx)", elapsed)
	}
	if stats.Queries != len(batch) {
		t.Fatalf("stats cover %d queries, batch has %d", stats.Queries, len(batch))
	}
	if !slices.ContainsFunc(out, func(r []Result) bool { return r == nil }) {
		t.Fatal("every slot of an early-cancelled 200-query batch holds an answer")
	}
	waitGoroutines(t, baseline)
}

// TestEngineFirstErrorCancelsInFlight: the first real query error must
// cancel the in-flight siblings, not just stop handing out new tasks.
func TestEngineFirstErrorCancelsInFlight(t *testing.T) {
	ct, queries := cancelFixture(t, 2*time.Millisecond)
	batch := make([]RangeQuery, 0, 101)
	batch = append(batch, RangeQuery{Rect: Box(Pt(0, 0), Pt(1, 1)), Prob: 42}) // invalid prob → immediate error
	for len(batch) < 101 {
		batch = append(batch, queries...)
	}
	eng := NewQueryEngine(ct, EngineOptions{Workers: 2})
	start := time.Now()
	_, _, err := eng.SearchBatch(context.Background(), batch)
	elapsed := time.Since(start)
	if err == nil || errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want the query-0 validation error", err)
	}
	if elapsed > 200*time.Millisecond {
		t.Fatalf("failed batch took %v before returning — in-flight work was not cancelled", elapsed)
	}
}
