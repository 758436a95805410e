package main

import (
	"context"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/dataset"
	"repro/internal/pagefile"
	"repro/uncertain"
)

// runOpts are the knobs of one workload run. scaleMul and insertLoad exist
// for the smoke test only: a tiny dataset, and a load path whose page
// layout does not depend on Go's map order.
type runOpts struct {
	seed       int64
	seconds    float64
	trace      bool
	spansDir   string // traced runs: where to write <workload>.spans.jsonl ("" → nowhere)
	workDir    string // file-backed workloads keep their index here
	scaleMul   float64
	insertLoad bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's outcome: the end-to-end metrics of an untraced
// run or the per-layer metrics of a traced one.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Digest    string            `json:"result_digest"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one workload run.
type bench struct {
	sp   spec
	o    runOpts
	in   inputs
	idx  uncertain.Index
	path string // index file, "" for memory

	bases []pagefile.Store // the base stores, captured through Config.WrapStore
	rec   *recorder        // nil on an untraced run
	live  map[int64]uncertain.PDF

	digest hash.Hash64 // over the answers of the first range replay

	attempted, failed int
	failures          []string
}

func (b *bench) fail(format string, args ...any) {
	b.failed++
	if len(b.failures) < 10 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

// counters are the cumulative counts the benchmark reads around a pass:
// page-store calls at the base stores, buffer-pool and node-cache hits and
// misses.
type counters struct {
	reads, writes, allocs, frees int64
	poolHit, poolMiss            int64
	nodeHit, nodeMiss            int64
}

func (b *bench) counters() counters {
	var c counters
	for _, s := range b.bases {
		r, w, a, f := s.Stats().Snapshot()
		c.reads += r
		c.writes += w
		c.allocs += a
		c.frees += f
	}
	c.poolHit, c.poolMiss = b.idx.CacheStats()
	c.nodeHit, c.nodeMiss = b.idx.NodeCacheStats()
	return c
}

// addSince adds to c what the counters grew by since before.
func (c *counters) addSince(before, now counters) {
	c.reads += now.reads - before.reads
	c.writes += now.writes - before.writes
	c.allocs += now.allocs - before.allocs
	c.frees += now.frees - before.frees
	c.poolHit += now.poolHit - before.poolHit
	c.poolMiss += now.poolMiss - before.poolMiss
	c.nodeHit += now.nodeHit - before.nodeHit
	c.nodeMiss += now.nodeMiss - before.nodeMiss
}

// readPhase is what the passes of a read phase (range or k-NN) measured.
type readPhase struct {
	n         int
	warmS     float64           // the warm-up pass, s
	lat       [][]float64       // per plain replayed pass, per op, ms
	latTraced [][]float64       // per traced replayed pass, per op, ms
	stats     uncertain.Stats   // summed over the replayed passes (range phase)
	nnStats   uncertain.NNStats // summed over the replayed passes (nn phase)
	counts    counters          // growth of the counters over the replayed passes
}

// replayedOps is the number of operations behind the phase's summed stats
// and counter deltas: the replayed passes, not the warm-up.
func (ph *readPhase) replayedOps() float64 {
	return float64(ph.n * (len(ph.lat) + len(ph.latTraced)))
}

// timed returns the passes the run's timings are taken from: the traced
// ones on a traced run, where the plain ones exist only to price the
// tracing.
func (ph *readPhase) timed() [][]float64 {
	if len(ph.latTraced) > 0 {
		return ph.latTraced
	}
	return ph.lat
}

// runWorkload builds the workload's index, drives its phases and returns
// the metrics. An error means the run could not be carried out at all;
// failed operations and oracle mismatches are counted in the result.
//
// Phases, in order: set-up (setups times) → warm-up → range replays → k-NN
// replays → write passes → flush, invariants, oracle.
func runWorkload(sp spec, o runOpts) (res *result, err error) {
	if o.scaleMul == 0 {
		o.scaleMul = 1
	}
	b := &bench{sp: sp, o: o, digest: fnv.New64a()}
	if o.trace {
		b.rec = newRecorder()
	}

	cpu0 := cpuSeconds()
	genStart := time.Now()
	b.in = generate(sp, o)
	genS := time.Since(genStart).Seconds()

	if sp.file {
		if err := os.MkdirAll(o.workDir, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(o.workDir, "e2ebench-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		b.path = filepath.Join(dir, sp.name+".idx")
	}

	// setup_s is the faster of two set-ups: both do the same work on the same
	// objects, and interference from the sandbox's other tenants only ever
	// adds time. A third set-up would not fit the driver's time cap. A traced
	// run reports no set-up time and sets up once.
	n := setups
	if o.trace {
		n = 1
	}
	setupTimes := make([]float64, n)
	for i := range setupTimes {
		if i > 0 {
			if err := b.discard(); err != nil {
				return nil, fmt.Errorf("%s: discard set-up %d: %w", sp.name, i, err)
			}
		}
		if setupTimes[i], err = b.setup(); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", sp.name, err)
		}
	}
	defer func() {
		if cerr := b.idx.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("%s: close: %w", sp.name, cerr)
		}
	}()

	rng, nn := readPhase{n: len(b.in.ranges)}, readPhase{n: len(b.in.nn)}
	b.rangePass(&rng, warmUp, false)
	b.nnPass(&nn, warmUp, false)
	for r := 0; r < replays; r++ {
		// A traced run's range replays alternate plain and traced, so that
		// bench.trace_overhead_pct compares like with like in one process.
		b.rangePass(&rng, r, false)
		if o.trace {
			b.rangePass(&rng, r, true)
		}
	}
	for r := 0; r < replays; r++ {
		b.nnPass(&nn, r, o.trace)
	}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	liveHeapMB := float64(ms.HeapAlloc) / 1e6
	var engineQPS float64
	if o.trace {
		engineQPS = b.engineBatch()
	}
	var wr writePhase
	for r := 0; r < replays; r++ {
		b.writePass(&wr, r)
	}

	if err := b.idx.Flush(); err != nil {
		b.fail("flush after write phase: %v", err)
	}
	size, err := b.storeBytes()
	if err != nil {
		return nil, err
	}
	b.attempted++
	if err := b.idx.CheckInvariants(); err != nil {
		b.fail("CheckInvariants after write phase: %v", err)
	}
	b.oracle()

	res = &result{
		Workload: sp.name, Seed: o.seed, Seconds: o.seconds, Traced: o.trace,
		Digest:  fmt.Sprintf("%016x", b.digest.Sum64()),
		Metrics: map[string]metric{},
	}
	timings(res.Metrics, &rng, &nn, &wr)
	if b.rec == nil {
		b.endToEnd(res.Metrics, percentile(setupTimes, 0), liveHeapMB, size, &rng, &wr)
	} else {
		b.perLayer(res.Metrics, &rng, &nn, &wr, engineQPS)
		put(res.Metrics, "bench.gen_s", genS)
		put(res.Metrics, "bench.warmup_s", rng.warmS+nn.warmS)
		put(res.Metrics, "bench.cpu_s", cpuSeconds()-cpu0)
		if o.spansDir != "" {
			if err := b.rec.writeSpans(o.spansDir, sp.name); err != nil {
				return nil, err
			}
		}
	}
	res.Attempted, res.Failed, res.Failures = b.attempted, b.failed, b.failures
	res.Correct = b.failed == 0
	return res, nil
}

// discard closes the index of a finished set-up and removes its file, so
// the next set-up starts from nothing.
func (b *bench) discard() error {
	if err := b.idx.Close(); err != nil {
		return err
	}
	b.idx, b.bases = nil, nil
	if b.path != "" {
		if err := os.Remove(b.path); err != nil {
			return err
		}
	}
	runtime.GC()
	return nil
}

// setup creates the index through the public constructors, loads it and
// flushes; the returned time is setup_s.
func (b *bench) setup() (float64, error) {
	cfg := b.sp.config
	cfg.Seed = b.o.seed
	cfg.Path = b.path
	cfg.WrapStore = func(s pagefile.Store) pagefile.Store {
		b.bases = append(b.bases, s)
		if b.rec != nil {
			return b.rec.wrap(s)
		}
		return s
	}
	b.live = make(map[int64]uncertain.PDF, len(b.in.loaded))
	for _, obj := range b.in.loaded {
		b.live[obj.ID] = obj.PDF
	}

	start := time.Now()
	var err error
	if b.sp.shards > 0 {
		lo, hi := make(uncertain.Point, cfg.Dimensions), make(uncertain.Point, cfg.Dimensions)
		for i := range hi {
			hi[i] = dataset.Domain
		}
		b.idx, err = uncertain.NewSpatialShardedTree(b.sp.shards, cfg, uncertain.Box(lo, hi))
	} else {
		b.idx, err = uncertain.NewConcurrentTree(cfg)
	}
	if err != nil {
		return 0, err
	}
	if b.o.insertLoad {
		for _, obj := range b.in.loaded {
			if err = b.idx.Insert(obj.ID, obj.PDF); err != nil {
				break
			}
		}
	} else {
		err = b.idx.BulkLoad(b.live)
	}
	if err == nil {
		err = b.idx.Flush()
	}
	if err != nil {
		b.idx.Close()
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}

// search issues one range query, timing it and, on a traced pass, recording
// its root span.
func (b *bench) search(phase string, pass, i int, op rangeOp, agg *uncertain.Stats) ([]uncertain.Result, float64) {
	tracing := b.rec != nil && b.rec.on.Load()
	if tracing {
		b.rec.begin()
	}
	t0 := time.Now()
	res, st, err := b.idx.Search(context.Background(), op.rect, op.pq)
	d := time.Since(t0)
	if tracing {
		start := int64(t0.Sub(b.rec.t0))
		b.rec.end(rootSpan{
			phase: phase, pass: pass, op: i, name: "Search", start: start, end: start + int64(d),
			filter: st.FilterTime, refine: st.RefineTime,
			oneShard: b.sp.shards <= 1 || st.ShardsPruned == b.sp.shards-1,
		})
	}
	b.attempted++
	if err != nil {
		b.fail("%s pass %d op %d: Search: %v", phase, pass, i, err)
	}
	if agg != nil {
		agg.Add(st)
	}
	return res, float64(d) / 1e6
}

// readPass executes a read phase's operations once, in order, and files the
// latencies under lat or latTraced; of the warm-up pass only the duration is
// kept.
func (b *bench) readPass(ph *readPhase, pass int, tracing bool, op func(i int) float64) {
	runtime.GC()
	if b.rec != nil {
		b.rec.on.Store(tracing)
		defer b.rec.on.Store(false)
	}
	before := b.counters()
	lat := make([]float64, ph.n)
	for i := range lat {
		lat[i] = op(i)
	}
	switch {
	case pass == warmUp:
		ph.warmS = sum(lat) / 1e3
		return
	case tracing:
		ph.latTraced = append(ph.latTraced, lat)
	default:
		ph.lat = append(ph.lat, lat)
	}
	ph.counts.addSince(before, b.counters())
}

// rangePass issues the range list once. The first replay's answers make the
// result digest.
func (b *bench) rangePass(ph *readPhase, pass int, tracing bool) {
	b.readPass(ph, pass, tracing, func(i int) float64 {
		var agg *uncertain.Stats
		if pass != warmUp {
			agg = &ph.stats
		}
		res, ms := b.search(phaseRange, pass, i, b.in.ranges[i], agg)
		if pass == 0 && !tracing {
			hashIDs(b.digest, res)
		}
		return ms
	})
}

// hashIDs folds one query's result IDs, sorted, into the digest: the
// answer set, not the traversal order, is what the digest pins.
func hashIDs(h hash.Hash64, res []uncertain.Result) {
	ids := make([]int64, len(res))
	for i, r := range res {
		ids[i] = r.ID
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	var buf [8]byte
	for _, id := range ids {
		for k := range buf {
			buf[k] = byte(id >> (8 * k))
		}
		h.Write(buf[:])
	}
	h.Write([]byte{0xff})
}

// engineBatch runs the range list once through QueryEngine.SearchBatch
// with two workers — a diagnostic for the engine layer, traced runs only.
func (b *bench) engineBatch() float64 {
	qs := make([]uncertain.RangeQuery, len(b.in.ranges))
	for i, op := range b.in.ranges {
		qs[i] = uncertain.RangeQuery{Rect: op.rect, Prob: op.pq}
	}
	eng := uncertain.NewQueryEngine(b.idx, uncertain.EngineOptions{Workers: 2})
	start := time.Now()
	_, _, err := eng.SearchBatch(context.Background(), qs)
	wall := time.Since(start).Seconds()
	b.attempted += len(qs)
	if err != nil {
		b.fail("engine SearchBatch: %v", err)
	}
	return float64(len(qs)) / wall
}

// nnPass issues the k-NN list once.
func (b *bench) nnPass(ph *readPhase, pass int, tracing bool) {
	b.readPass(ph, pass, tracing, func(i int) float64 {
		if tracing {
			b.rec.begin()
		}
		t0 := time.Now()
		_, st, err := b.idx.NearestNeighbors(context.Background(), b.in.nn[i], nnK)
		d := time.Since(t0)
		if tracing {
			start := int64(t0.Sub(b.rec.t0))
			b.rec.end(rootSpan{phase: phaseNN, pass: pass, op: i, name: "NearestNeighbors", start: start, end: start + int64(d)})
		}
		b.attempted++
		if err != nil {
			b.fail("nn pass %d op %d: NearestNeighbors: %v", pass, i, err)
		}
		if pass != warmUp {
			ph.nnStats.Add(st)
		}
		return float64(d) / 1e6
	})
}

// writePhase is what the write passes measured.
type writePhase struct {
	mutations  int
	batchLat   [][]float64 // per pass, per WriteBatch, ms
	mixedLat   [][]float64 // per pass, per post-commit query, ms
	counts     counters    // growth of the counters over the passes
	reclaimed  int64
	pendingEnd int
}

// writePass runs one write pass, its share of the batches: each batch is one
// WriteBatch of 8 inserts and 8 deletes, followed by range queries centred
// on the objects just inserted.
func (b *bench) writePass(wp *writePhase, pass int) {
	runtime.GC()
	if b.rec != nil {
		b.rec.on.Store(true)
		defer b.rec.on.Store(false)
	}
	before := b.counters()
	gc0 := b.idx.GCInfo()
	per := len(b.in.batches) / replays
	batches := b.in.batches[pass*per : (pass+1)*per]
	var batchLat, mixedLat []float64
	for i, wb := range batches {
		if b.rec != nil {
			b.rec.begin()
		}
		t0 := time.Now()
		err := b.idx.WriteBatch(func(w uncertain.BatchWriter) error {
			for j := range wb.ins {
				if err := w.Insert(wb.ins[j].ID, wb.ins[j].PDF); err != nil {
					return err
				}
				if err := w.Delete(wb.del[j]); err != nil {
					return err
				}
			}
			return nil
		})
		d := time.Since(t0)
		if b.rec != nil {
			start := int64(t0.Sub(b.rec.t0))
			b.rec.end(rootSpan{phase: phaseWrite, pass: pass, op: i, name: "WriteBatch", start: start, end: start + int64(d)})
		}
		b.attempted++
		if err != nil {
			b.fail("write pass %d batch %d: WriteBatch: %v", pass, i, err)
		} else {
			for j := range wb.ins {
				b.live[wb.ins[j].ID] = wb.ins[j].PDF
				delete(b.live, wb.del[j])
			}
		}
		batchLat = append(batchLat, float64(d)/1e6)
		for j, op := range wb.post {
			_, ms := b.search(phaseMixed, pass, i*len(wb.post)+j, op, nil)
			mixedLat = append(mixedLat, ms)
		}
	}
	wp.mutations += len(batches) * 2 * batchInserts
	wp.batchLat = append(wp.batchLat, batchLat)
	wp.mixedLat = append(wp.mixedLat, mixedLat)
	wp.counts.addSince(before, b.counters())
	gc1 := b.idx.GCInfo()
	wp.reclaimed += gc1.ReclaimedPages - gc0.ReclaimedPages
	wp.pendingEnd = gc1.PendingPages
}

// storeBytes is the space the index occupies: the file's size, or the
// memory store's live pages.
func (b *bench) storeBytes() (float64, error) {
	if b.path != "" {
		fi, err := os.Stat(b.path)
		if err != nil {
			return 0, err
		}
		return float64(fi.Size()), nil
	}
	pages := 0
	for _, s := range b.bases {
		pages += s.NumPages()
	}
	return float64(pages) * pagefile.PageSize, nil
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
