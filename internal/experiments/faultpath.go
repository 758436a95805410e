package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/pagefile"
	"repro/internal/workload"
	"repro/uncertain"
)

// This experiment is not in the paper: it drives the storage fault-
// tolerance stack end to end — checksummed file store, retrying reads,
// quarantine containment, the on-demand scrub and degraded sharded
// reads — under chaos injection, and checks the three acceptance
// properties of the robustness work:
//
//  (a) transient faults are absorbed: a workload under ~1% injected
//      transient I/O faults completes with ZERO user-visible errors
//      (the retry layer re-drives every faulted operation);
//  (b) corruption is contained, never believed: under bit-flip injection
//      no query ever returns a wrong answer — every affected query fails
//      with a typed error (ErrChecksum / ErrBadPage) and the damaged
//      pages land in quarantine, while unaffected queries keep answering
//      exactly;
//  (c) fault tolerance is cheap: throughput under the 1% transient-fault
//      workload stays within 1.3x of the clean run.
//
// A fourth phase kills one shard of a ShardedTree outright and verifies
// WithAllowDegraded turns whole-query failures into partial answers
// carrying ErrDegraded — and that those partials are always a subset of
// the clean answers.
//
// Properties (a) and (b) are enforced here (the run fails if they do not
// hold); the throughput ratio (c) is reported in the row for the CI gate
// to assert, since it is the one timing-sensitive number.

// FaultPathRow is one phase of the fault-path run.
type FaultPathRow struct {
	// Phase is "clean", "transient", "bitflip" or "degraded".
	Phase string
	// Queries is how many range queries the phase ran.
	Queries int
	// QPS is the phase's query throughput (latency armed).
	QPS float64
	// SlowdownVsClean is cleanQPS / thisQPS (1.0 for the clean phase);
	// the transient phase's acceptance bound is ≤ 1.3.
	SlowdownVsClean float64
	// UserErrors counts errors that are NOT part of the fault-tolerance
	// contract (anything other than ErrChecksum / ErrBadPage /
	// ErrDegraded). Must be 0 in every phase.
	UserErrors int
	// TypedErrors counts queries that failed with ErrChecksum or
	// ErrBadPage — corruption surfaced as a typed refusal, not as data.
	TypedErrors int
	// DegradedQueries counts queries that returned partial results with
	// ErrDegraded.
	DegradedQueries int
	// WrongAnswers counts successful queries whose results differ from
	// the clean baseline (degraded partials count when they are not a
	// subset of the baseline). Must be 0 in every phase.
	WrongAnswers int
	// WriteOps is how many mutations the phase's writer stream performed
	// (transient phase only; all must succeed).
	WriteOps int
	// InjectedFaults is how many faults the chaos layer fired (the page
	// latency is a chaos rule too; its firings are not faults and do not
	// count).
	InjectedFaults int64
	// Retries is the retry layer's re-drive count over the phase.
	Retries int64
	// ScrubVerified and ScrubCorrupt are what Tree.Scrub returned after the
	// phase's queries (bitflip phase only): pages verified clean and pages
	// proved corrupt.
	ScrubVerified int
	ScrubCorrupt  int
	// Health is the index's storage-health report at the end of the
	// phase: quarantined pages, retries.
	Health uncertain.HealthInfo
}

// faultBufferPages keeps the page cache small enough that queries do
// real I/O — the fault machinery under test sits on the read path, and a
// fully-cached run would never exercise it. The decoded-node cache is
// disabled for the same reason.
const faultBufferPages = 16

// FaultPath runs the four-phase fault-tolerance check on the LB mixed
// workload. Phases (a)/(b) failing their acceptance property is an error;
// the returned rows carry the numbers for the CI throughput gate.
func FaultPath(cfg Config) ([]FaultPathRow, error) {
	cfg = cfg.withDefaults()
	out := cfg.Out
	fprintf(out, "Fault path: chaos injection vs the fault-tolerance stack (LB, file-backed, page latency %v)\n",
		cfg.IOLatency)

	objects, queries := mixedWorkload(cfg)
	dir, err := os.MkdirTemp("", "utree-faultpath")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var rows []FaultPathRow

	// Phase 1+2: clean baseline, then ~1% transient faults on every
	// operation kind, on identically-built trees. The clean phase's
	// results are the equivalence baseline for every later phase.
	clean, baseline, err := runCleanPhase(dir, cfg, objects, queries)
	if err != nil {
		return nil, fmt.Errorf("faultpath clean: %w", err)
	}
	rows = append(rows, clean)
	printFaultRow(out, clean)

	transient, err := runTransientPhase(dir, cfg, objects, queries, baseline, clean.QPS)
	if err != nil {
		return nil, fmt.Errorf("faultpath transient: %w", err)
	}
	rows = append(rows, transient)
	printFaultRow(out, transient)

	bitflip, err := runBitFlipPhase(dir, cfg, objects, queries, baseline, clean.QPS)
	if err != nil {
		return nil, fmt.Errorf("faultpath bitflip: %w", err)
	}
	rows = append(rows, bitflip)
	printFaultRow(out, bitflip)

	degraded, err := runDegradedPhase(cfg, objects, queries)
	if err != nil {
		return nil, fmt.Errorf("faultpath degraded: %w", err)
	}
	rows = append(rows, degraded)
	printFaultRow(out, degraded)

	return rows, nil
}

func printFaultRow(out io.Writer, r FaultPathRow) {
	fprintf(out, "  %-9s %7.1f q/s  %5.2fx  (injected %d, retries %d, typed %d, degraded %d, wrong %d, user errs %d, quarantined %d, scrubbed %d)\n",
		r.Phase, r.QPS, r.SlowdownVsClean, r.InjectedFaults, r.Retries,
		r.TypedErrors, r.DegradedQueries, r.WrongAnswers, r.UserErrors,
		r.Health.QuarantinedPages, r.ScrubVerified)
}

// armLatency installs cfg.IOLatency on every page operation of cs as a
// chaos latency rule. Installed after the build, so construction runs at
// full speed; before the fault rules, so a faulted operation pays the
// latency too and every retry pays it again.
func armLatency(cs *pagefile.ChaosStore, cfg Config) {
	if cfg.IOLatency > 0 {
		cs.MustAddRule(pagefile.ChaosRule{Op: pagefile.OpAny, Fault: pagefile.FaultLatency, Prob: 1, Latency: cfg.IOLatency})
	}
}

// buildFaultIndex constructs the phase's file-backed Tree with a
// ChaosStore spliced under the retry layer, bulk-loads it, and arms the
// measurement latency. Fault rules are installed by the caller AFTER the
// build, so construction itself runs clean.
func buildFaultIndex(path string, cfg Config, objects map[int64]uncertain.PDF) (*uncertain.Tree, *pagefile.ChaosStore, error) {
	var chaos *pagefile.ChaosStore
	ucfg := uncertain.Config{
		Dimensions:      dataset.LB.Dim(),
		ExactRefinement: true, // deterministic probabilities → exact equivalence
		Seed:            cfg.Seed,
		BufferPages:     faultBufferPages,
		// The decoded-node cache would serve repeat node reads without
		// touching storage, hiding the fault machinery under test.
		NodeCacheEntries: -1,
		Path:             path,
		// Generous retry budget with tight backoff: property (a) demands
		// zero user-visible errors, and 1%^6 per-op residual risk is zero
		// for this run length; property (c) demands the backoff not
		// dominate the 1%-inflated latency bill.
		RetryAttempts:  6,
		RetryBaseDelay: 100 * time.Microsecond,
		RetryMaxDelay:  time.Millisecond,
		WrapStore: func(s pagefile.Store) pagefile.Store {
			chaos = pagefile.NewChaosStore(s, cfg.Seed)
			return chaos
		},
	}
	idx, err := uncertain.NewTree(ucfg)
	if err != nil {
		return nil, nil, err
	}
	if err := idx.BulkLoad(objects); err != nil {
		idx.Close()
		return nil, nil, err
	}
	if err := idx.Flush(); err != nil {
		idx.Close()
		return nil, nil, err
	}
	armLatency(chaos, cfg)
	return idx, chaos, nil
}

// classifyFaultErr buckets a query error into the fault-tolerance
// taxonomy: corruption (typed), degraded partial, or a contract breach.
func classifyFaultErr(err error, row *FaultPathRow) {
	switch {
	case errors.Is(err, uncertain.ErrChecksum) || errors.Is(err, uncertain.ErrBadPage):
		row.TypedErrors++
	case errors.Is(err, uncertain.ErrDegraded):
		row.DegradedQueries++
	default:
		row.UserErrors++
	}
}

// runFaultQueries runs the workload once against idx, tallying outcomes
// into row. Successful queries are compared against baseline for exact
// equality; degraded partials are checked to be a subset of the baseline
// (any surplus object is a wrong answer). A nil baseline skips checking.
func runFaultQueries(idx uncertain.Index, queries []uncertain.RangeQuery,
	baseline [][]uncertain.Result, row *FaultPathRow, opts ...uncertain.QueryOption) [][]uncertain.Result {
	results := make([][]uncertain.Result, len(queries))
	start := time.Now()
	for i, q := range queries {
		res, _, err := idx.Search(context.Background(), q.Rect, q.Prob, opts...)
		row.Queries++
		sorted := sortedByID(res)
		results[i] = sorted
		switch {
		case err == nil:
			if baseline != nil && !equalResults(sorted, baseline[i]) {
				row.WrongAnswers++
			}
		case errors.Is(err, uncertain.ErrDegraded):
			row.DegradedQueries++
			if baseline != nil && !subsetOf(sorted, baseline[i]) {
				row.WrongAnswers++
			}
		default:
			classifyFaultErr(err, row)
		}
	}
	row.QPS = float64(len(queries)) / time.Since(start).Seconds()
	return results
}

// equalResults compares two ID-sorted result slices for exact equality.
func equalResults(a, b []uncertain.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Prob != b[i].Prob {
			return false
		}
	}
	return true
}

// subsetOf reports whether every result in sub also appears in super
// (both ID-sorted) with the same probability — the degraded-partial
// correctness condition: incomplete is allowed, invented is not.
func subsetOf(sub, super []uncertain.Result) bool {
	j := 0
	for _, r := range sub {
		for j < len(super) && super[j].ID < r.ID {
			j++
		}
		if j >= len(super) || super[j].ID != r.ID || super[j].Prob != r.Prob {
			return false
		}
		j++
	}
	return true
}

// runCleanPhase measures the no-fault baseline and captures the
// reference results every later phase is checked against.
func runCleanPhase(dir string, cfg Config, objects map[int64]uncertain.PDF,
	queries []uncertain.RangeQuery) (FaultPathRow, [][]uncertain.Result, error) {
	row := FaultPathRow{Phase: "clean", SlowdownVsClean: 1}
	idx, chaos, err := buildFaultIndex(filepath.Join(dir, "clean.utree"), cfg, objects)
	if err != nil {
		return row, nil, err
	}
	defer idx.Close()
	baseline := runFaultQueries(idx, queries, nil, &row)
	row.InjectedFaults = chaosTotal(chaos)
	row.Health = idx.Health()
	row.Retries = row.Health.Retries
	if row.UserErrors > 0 || row.TypedErrors > 0 || row.DegradedQueries > 0 {
		return row, nil, fmt.Errorf("clean run saw errors (user %d, typed %d, degraded %d)",
			row.UserErrors, row.TypedErrors, row.DegradedQueries)
	}
	return row, baseline, idx.Close()
}

// runTransientPhase re-runs the workload with ~1% transient faults on
// every operation, plus a writer stream exercising the write path's
// retries. Acceptance: zero user-visible errors, exact answers.
func runTransientPhase(dir string, cfg Config, objects map[int64]uncertain.PDF,
	queries []uncertain.RangeQuery, baseline [][]uncertain.Result, cleanQPS float64) (FaultPathRow, error) {
	row := FaultPathRow{Phase: "transient"}
	idx, chaos, err := buildFaultIndex(filepath.Join(dir, "transient.utree"), cfg, objects)
	if err != nil {
		return row, err
	}
	defer idx.Close()
	chaos.MustAddRule(pagefile.ChaosRule{Op: pagefile.OpAny, Fault: pagefile.FaultTransient, Prob: 0.01})

	runFaultQueries(idx, queries, baseline, &row)
	if cleanQPS > 0 {
		row.SlowdownVsClean = cleanQPS / row.QPS
	}

	// The write path retries too: inserts, deletes, commits and metadata
	// writes all pass through the same faulted store.
	ops, err := churnOps(idx, 4_000_000, 32)
	row.WriteOps = ops
	if err != nil {
		return row, fmt.Errorf("writer stream under transient faults: %w", err)
	}
	if err := idx.Flush(); err != nil {
		return row, fmt.Errorf("flush under transient faults: %w", err)
	}

	row.InjectedFaults = chaosTotal(chaos)
	row.Health = idx.Health()
	row.Retries = row.Health.Retries
	if row.UserErrors > 0 || row.TypedErrors > 0 || row.DegradedQueries > 0 || row.WrongAnswers > 0 {
		return row, fmt.Errorf("transient faults leaked to the user (user %d, typed %d, degraded %d, wrong %d; injected %d, retries %d)",
			row.UserErrors, row.TypedErrors, row.DegradedQueries, row.WrongAnswers,
			row.InjectedFaults, row.Retries)
	}
	if row.InjectedFaults > 0 && row.Retries == 0 {
		return row, fmt.Errorf("%d faults injected but the retry layer recorded none", row.InjectedFaults)
	}
	return row, idx.Close()
}

// runBitFlipPhase corrupts the medium under the checksummed store during
// reads. Acceptance: no wrong answers ever — only typed errors — and the
// damage lands in quarantine, where Health reports it.
func runBitFlipPhase(dir string, cfg Config, objects map[int64]uncertain.PDF,
	queries []uncertain.RangeQuery, baseline [][]uncertain.Result, cleanQPS float64) (FaultPathRow, error) {
	row := FaultPathRow{Phase: "bitflip"}
	idx, chaos, err := buildFaultIndex(filepath.Join(dir, "bitflip.utree"), cfg, objects)
	if err != nil {
		return row, err
	}
	defer idx.Close()
	chaos.MustAddRule(pagefile.ChaosRule{Op: pagefile.OpRead, Fault: pagefile.FaultBitFlip, Prob: 0.01, Bit: -1})

	runFaultQueries(idx, queries, baseline, &row)
	if cleanQPS > 0 {
		row.SlowdownVsClean = cleanQPS / row.QPS
	}

	// Sweep the medium for damage the queries have not yet tripped over.
	row.ScrubVerified, row.ScrubCorrupt = idx.Scrub()

	row.InjectedFaults = chaosTotal(chaos)
	row.Health = idx.Health()
	row.Retries = row.Health.Retries
	if row.WrongAnswers > 0 {
		return row, fmt.Errorf("bit flips produced %d wrong answers — corruption was believed", row.WrongAnswers)
	}
	if row.UserErrors > 0 {
		return row, fmt.Errorf("bit flips surfaced %d untyped errors", row.UserErrors)
	}
	if row.InjectedFaults > 0 && row.TypedErrors == 0 && row.Health.QuarantinedPages == 0 {
		return row, fmt.Errorf("%d bit flips injected but no typed error and no quarantine followed", row.InjectedFaults)
	}
	// Discard, not Close: the medium is deliberately corrupt, so the
	// final commit's write-backs may legitimately fail.
	return row, idx.Discard()
}

// runDegradedPhase builds a memory-backed ShardedTree, kills one shard's
// reads outright, and checks that WithAllowDegraded turns the failures
// into partial answers carrying ErrDegraded — never invented results.
func runDegradedPhase(cfg Config, objects map[int64]uncertain.PDF,
	queries []uncertain.RangeQuery) (FaultPathRow, error) {
	const shards = 3
	row := FaultPathRow{Phase: "degraded"}
	var built atomic.Int32
	var shardChaos [shards]*pagefile.ChaosStore
	idx, err := uncertain.NewShardedTree(shards, uncertain.Config{
		Dimensions:       dataset.LB.Dim(),
		ExactRefinement:  true,
		Seed:             cfg.Seed,
		BufferPages:      faultBufferPages,
		NodeCacheEntries: -1,
		WrapStore: func(s pagefile.Store) pagefile.Store {
			cs := pagefile.NewChaosStore(s, cfg.Seed)
			shardChaos[built.Add(1)-1] = cs
			return cs
		},
	})
	if err != nil {
		return row, err
	}
	defer idx.Close()
	if err := idx.BulkLoad(objects); err != nil {
		return row, err
	}
	for _, cs := range shardChaos {
		armLatency(cs, cfg)
	}

	// Clean sharded baseline (shard routing reshuffles traversal order,
	// so compare against this run, not the single-tree phases').
	var base FaultPathRow
	baseline := runFaultQueries(idx, queries, nil, &base)
	if base.UserErrors > 0 || base.TypedErrors > 0 || base.DegradedQueries > 0 {
		return row, fmt.Errorf("clean sharded run saw errors (user %d, typed %d, degraded %d)",
			base.UserErrors, base.TypedErrors, base.DegradedQueries)
	}

	// Kill shard 0's reads: sticky permanent faults from now on.
	dead := shardChaos[0].MustAddRule(pagefile.ChaosRule{Op: pagefile.OpRead, Fault: pagefile.FaultPermanent, Countdown: -1, Sticky: true})
	dead.Arm(0)

	runFaultQueries(idx, queries, baseline, &row, uncertain.WithAllowDegraded(true))
	row.SlowdownVsClean = 1
	if base.QPS > 0 {
		row.SlowdownVsClean = base.QPS / row.QPS
	}
	row.InjectedFaults = chaosTotal(shardChaos[0])
	row.Health = idx.Health()
	row.Retries = row.Health.Retries

	if row.WrongAnswers > 0 {
		return row, fmt.Errorf("degraded reads invented %d answers beyond the baseline", row.WrongAnswers)
	}
	if row.UserErrors > 0 || row.TypedErrors > 0 {
		return row, fmt.Errorf("shard failure escaped the degraded contract (user %d, typed %d)", row.UserErrors, row.TypedErrors)
	}
	if row.InjectedFaults > 0 && row.DegradedQueries == 0 {
		return row, fmt.Errorf("shard 0 failed %d reads but no query reported degradation", row.InjectedFaults)
	}
	return row, nil
}

// chaosTotal sums a chaos store's fired-fault counters over every kind but
// FaultLatency, which armLatency installs on every phase alike.
func chaosTotal(cs *pagefile.ChaosStore) int64 {
	var n int64
	for _, k := range []pagefile.FaultKind{
		pagefile.FaultTransient, pagefile.FaultPermanent,
		pagefile.FaultBitFlip, pagefile.FaultTornWrite,
	} {
		n += cs.InjectedCount(k)
	}
	return n
}

// mixedWorkload generates the LB objects and the Fig. 9 mid-point query
// workload (qs = 1500, pq = 0.6) the phases share.
func mixedWorkload(cfg Config) (map[int64]uncertain.PDF, []uncertain.RangeQuery) {
	objs := dataset.Generate(dataset.Config{Name: dataset.LB, Scale: cfg.Scale, Seed: cfg.Seed})
	objects := make(map[int64]uncertain.PDF, len(objs))
	for _, o := range objs {
		objects[o.ID] = o.PDF
	}
	w := workload.New(workload.Config{
		QS: scaledQS(1500), PQ: 0.6, Count: cfg.Queries,
		Seed: cfg.Seed, Domain: dataset.Domain, Centers: centersOf(objs),
	})
	queries := make([]uncertain.RangeQuery, len(w.Queries))
	for i, q := range w.Queries {
		queries[i] = uncertain.RangeQuery{Rect: q.Rect, Prob: q.Prob}
	}
	return objects, queries
}

func sortedByID(res []uncertain.Result) []uncertain.Result {
	out := make([]uncertain.Result, len(res))
	copy(out, res)
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// churnOps is the transient phase's writer stream: insert a fresh
// object, delete every fourth — deletes retire the leaf pages they
// rewrite. Returns the mutation count performed.
func churnOps(idx uncertain.Index, baseID int64, n int) (int, error) {
	rng := rand.New(rand.NewSource(baseID))
	ops := 0
	for i := 0; i < n; i++ {
		id := baseID + int64(i)
		center := uncertain.Pt(
			250+rng.Float64()*(dataset.Domain-500),
			250+rng.Float64()*(dataset.Domain-500))
		if err := idx.Insert(id, uncertain.UniformCircle(center, 250)); err != nil {
			return ops, err
		}
		ops++
		if i%4 == 3 {
			if err := idx.Delete(id); err != nil {
				return ops, err
			}
			ops++
		}
	}
	return ops, nil
}
