package uncertain

import (
	"context"
	"errors"
	"sort"
	"testing"
	"time"
)

// spatialCfg is the adaptive-planning config the planner tests share.
func spatialCfg() Config {
	return Config{Dimensions: 2, ExactRefinement: true, AdaptivePlanning: true}
}

// TestSpatialShardedEquivalenceAndPruning: a spatially-sharded adaptive
// index must answer every query identically to a single tree over the same
// objects, and must actually skip shards on localized queries — the
// tentpole's byte-identity and shard-pruning claims in one test.
func TestSpatialShardedEquivalenceAndPruning(t *testing.T) {
	objects := shardedFixtureObjects(600, 5)
	queries := shardedFixtureQueries(60, 6)
	// Add localized queries that touch a single slab of the [0,1000]²
	// domain — the ones pruning must fire on.
	for i := 0; i < 20; i++ {
		cx := 60 + float64(i)*10
		queries = append(queries, RangeQuery{
			Rect: Box(Pt(cx-30, 400), Pt(cx+30, 520)),
			Prob: 0.3,
		})
	}

	single, err := NewConcurrentTree(Config{Dimensions: 2, ExactRefinement: true})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	if err := single.BulkLoad(objects); err != nil {
		t.Fatal(err)
	}

	st, err := NewSpatialShardedTree(4, spatialCfg(), Box(Pt(0, 0), Pt(1000, 1000)))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.BulkLoad(objects); err != nil {
		t.Fatal(err)
	}
	if got := st.Len(); got != len(objects) {
		t.Fatalf("Len = %d, want %d", got, len(objects))
	}

	totalPruned := 0
	for i, q := range queries {
		want, _, err := single.Search(context.Background(), q.Rect, q.Prob)
		if err != nil {
			t.Fatal(err)
		}
		got, stats, err := st.Search(context.Background(), q.Rect, q.Prob)
		if err != nil {
			t.Fatal(err)
		}
		w := sortByID(want)
		if len(got) != len(w) {
			t.Fatalf("query %d: %d results, single tree %d", i, len(got), len(w))
		}
		for j := range got {
			if got[j] != w[j] {
				t.Fatalf("query %d result %d: %+v, single tree %+v", i, j, got[j], w[j])
			}
		}
		totalPruned += stats.ShardsPruned
	}
	if totalPruned == 0 {
		t.Fatal("no shard was ever pruned on a spatially-partitioned index")
	}
}

// TestSpatialShardedNNEquivalence: the cost-ranked, bound-pruned NN
// fan-out must reproduce the full fan-out's answers exactly.
func TestSpatialShardedNNEquivalence(t *testing.T) {
	objects := shardedFixtureObjects(500, 7)

	single, err := NewConcurrentTree(Config{Dimensions: 2, ExactRefinement: true})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	if err := single.BulkLoad(objects); err != nil {
		t.Fatal(err)
	}

	st, err := NewSpatialShardedTree(4, spatialCfg(), Box(Pt(0, 0), Pt(1000, 1000)))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.BulkLoad(objects); err != nil {
		t.Fatal(err)
	}

	pruned := 0
	for i := 0; i < 25; i++ {
		q := Pt(float64(i)*40+20, 500)
		for _, k := range []int{1, 5, 10} {
			want, _, err := single.NearestNeighbors(context.Background(), q, k)
			if err != nil {
				t.Fatal(err)
			}
			got, stats, err := st.NearestNeighbors(context.Background(), q, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("q=%v k=%d: %d neighbors, single tree %d", q, k, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("q=%v k=%d neighbor %d: %+v, single tree %+v", q, k, j, got[j], want[j])
				}
			}
			pruned += stats.ShardsPruned
		}
	}
	if pruned == 0 {
		t.Fatal("NN shard pruning never fired on edge-of-domain query points")
	}
}

// TestSpatialRoutingLifecycle covers the session routing table: deletes by
// bare ID for routed objects, DeleteWithRegion for unrouted ones, batch
// self-delete, and the untracked-ID error.
func TestSpatialRoutingLifecycle(t *testing.T) {
	st, err := NewSpatialShardedTree(4, spatialCfg(), Box(Pt(0, 0), Pt(1000, 1000)))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	p1 := UniformCircle(Pt(100, 500), 10)
	p2 := UniformCircle(Pt(900, 500), 10)
	if err := st.Insert(1, p1); err != nil {
		t.Fatal(err)
	}
	if err := st.Insert(2, p2); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 2 {
		t.Fatalf("Len = %d", st.Len())
	}
	if err := st.Delete(1); err != nil {
		t.Fatalf("routed delete: %v", err)
	}
	if err := st.Delete(99); err == nil {
		t.Fatal("unrouted bare-ID delete accepted")
	}
	if err := st.DeleteWithRegion(2, p2.MBR()); err != nil {
		t.Fatalf("DeleteWithRegion: %v", err)
	}
	if st.Len() != 0 {
		t.Fatalf("Len after deletes = %d", st.Len())
	}

	// A batch must be able to delete its own pending insert by bare ID.
	err = st.WriteBatch(func(w BatchWriter) error {
		if err := w.Insert(10, p1); err != nil {
			return err
		}
		if err := w.Insert(11, p2); err != nil {
			return err
		}
		return w.Delete(10)
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 1 {
		t.Fatalf("Len after batch = %d", st.Len())
	}
	if err := st.Delete(11); err != nil {
		t.Fatalf("delete of batch-inserted object: %v", err)
	}
}

// TestAdmissionControl: an engine with a tiny in-flight I/O ceiling must
// shed overlapping queries with ErrAdmission (counted, non-fatal) while an
// idle engine always admits, whatever the prediction.
func TestAdmissionControl(t *testing.T) {
	// Shedding needs two queries in flight at once. A query the leaf decides
	// without reading a record is over in microseconds, so the overlap is
	// made, not hoped for: no node cache, a four-page pool and a millisecond
	// per physical read hold every query in flight while its worker sleeps.
	cfg := spatialCfg()
	cfg.NodeCacheEntries, cfg.BufferPages, cfg.SimulatedPageLatency = -1, 4, time.Millisecond
	ct, err := NewConcurrentTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()
	if err := ct.BulkLoad(shardedFixtureObjects(400, 8)); err != nil {
		t.Fatal(err)
	}
	if _, ok := ct.PredictSearchIO(Box(Pt(0, 0), Pt(1000, 1000)), 0.5); !ok {
		t.Fatal("no cost model after BulkLoad commit; admission would be vacuous")
	}

	// Single query on an idle engine: a prediction far above the ceiling
	// must still be admitted (no deadlock on oversized queries).
	eng := NewQueryEngine(ct, EngineOptions{Workers: 4, MaxInFlightIO: 0.001})
	big := []RangeQuery{{Rect: Box(Pt(0, 0), Pt(1000, 1000)), Prob: 0.3}}
	res, stats, err := eng.SearchBatch(context.Background(), big)
	if err != nil {
		t.Fatal(err)
	}
	if stats.AdmissionRejected != 0 {
		t.Fatalf("idle engine shed its only query: %+v", stats)
	}
	if len(res[0]) == 0 {
		t.Fatal("degenerate fixture: whole-domain query returned nothing")
	}

	// Many concurrent queries against the same tiny ceiling: everything
	// that overlaps an in-flight query must be shed, and shedding is
	// non-fatal (nil error, nil result slots).
	queries := shardedFixtureQueries(40, 9)
	res, stats, err = eng.SearchBatch(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	if stats.AdmissionRejected == 0 {
		t.Fatal("tiny ceiling never shed a query at workers=4")
	}
	if stats.AdmissionRejected >= len(queries) {
		t.Fatalf("every query shed (%d): the idle-admit rule is broken", stats.AdmissionRejected)
	}
	shedSlots := 0
	for i := range res {
		if res[i] == nil {
			shedSlots++
		}
	}
	if shedSlots == 0 {
		t.Fatal("admission rejections reported but every result slot is populated")
	}

	// A generous ceiling with a wait budget sheds nothing.
	eng = NewQueryEngine(ct, EngineOptions{Workers: 4, MaxInFlightIO: 1e9, AdmissionWait: time.Second})
	_, stats, err = eng.SearchBatch(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	if stats.AdmissionRejected != 0 {
		t.Fatalf("generous ceiling shed %d queries", stats.AdmissionRejected)
	}
}

// TestAdmissionErrorShape: the typed error unwraps to the sentinel and
// carries the decision's inputs.
func TestAdmissionErrorShape(t *testing.T) {
	a := newAdmitter(10, 0)
	if err := a.admit(5); err != nil {
		t.Fatalf("first admit: %v", err)
	}
	err := a.admit(6) // 5 + 6 > 10, no wait budget
	if err == nil {
		t.Fatal("over-ceiling admit accepted")
	}
	if !errors.Is(err, ErrAdmission) {
		t.Fatalf("errors.Is(ErrAdmission) = false for %v", err)
	}
	var ae *AdmissionError
	if !errors.As(err, &ae) {
		t.Fatalf("errors.As(*AdmissionError) = false for %v", err)
	}
	if ae.Predicted != 6 || ae.InFlight != 5 || ae.Ceiling != 10 || ae.RetryAfter <= 0 {
		t.Fatalf("admission error fields: %+v", ae)
	}
	a.release(5)
	if err := a.admit(6); err != nil {
		t.Fatalf("admit after release: %v", err)
	}
	a.release(6)

	// With a wait budget, a waiter is admitted once capacity frees up.
	a = newAdmitter(10, 2*time.Second)
	if err := a.admit(8); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- a.admit(5) }()
	time.Sleep(20 * time.Millisecond)
	a.release(8)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("waiter not admitted after release: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter stuck after release")
	}
}

// TestShardedPlannerInfo: the merged diagnostics must reflect per-shard
// planner activity.
func TestShardedPlannerInfo(t *testing.T) {
	st, err := NewSpatialShardedTree(2, spatialCfg(), Box(Pt(0, 0), Pt(1000, 1000)))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.BulkLoad(shardedFixtureObjects(400, 10)); err != nil {
		t.Fatal(err)
	}
	for _, q := range shardedFixtureQueries(10, 11) {
		if _, _, err := st.Search(context.Background(), q.Rect, q.Prob); err != nil {
			t.Fatal(err)
		}
	}
	info := st.PlannerInfo()
	if !info.Enabled {
		t.Fatal("merged PlannerInfo not enabled")
	}
	if info.Queries == 0 || info.MeasuredAccesses <= 0 {
		t.Fatalf("merged PlannerInfo shows no activity: %+v", info)
	}
	if info.ModelRebuilds < 2 {
		t.Fatalf("expected a model rebuild per shard, got %d", info.ModelRebuilds)
	}

	if p, ok := st.PredictSearchIO(Box(Pt(0, 0), Pt(1000, 1000)), 0.5); !ok || p <= 0 {
		t.Fatalf("sharded PredictSearchIO = %v ok=%v", p, ok)
	}
	// A query confined to the left slab must predict less than the whole
	// domain (the right shard is pruned from the sum).
	left, ok := st.PredictSearchIO(Box(Pt(0, 0), Pt(100, 1000)), 0.5)
	if !ok {
		t.Fatal("left-slab prediction unavailable")
	}
	whole, _ := st.PredictSearchIO(Box(Pt(0, 0), Pt(1000, 1000)), 0.5)
	if left >= whole {
		t.Fatalf("pruning-aware prediction %v not below whole-domain %v", left, whole)
	}
}

// sortNeighbors is a test helper guard: the merge contract says results
// arrive sorted by (distance, ID); verify on a sample.
func TestShardedNNSortedContract(t *testing.T) {
	st, err := NewSpatialShardedTree(3, spatialCfg(), Box(Pt(0, 0), Pt(1000, 1000)))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.BulkLoad(shardedFixtureObjects(300, 12)); err != nil {
		t.Fatal(err)
	}
	got, _, err := st.NearestNeighbors(context.Background(), Pt(500, 500), 20)
	if err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(got, func(a, b int) bool {
		if got[a].ExpectedDist != got[b].ExpectedDist {
			return got[a].ExpectedDist < got[b].ExpectedDist
		}
		return got[a].ID < got[b].ID
	}) {
		t.Fatal("adaptive NN merge not sorted by (distance, ID)")
	}
}
