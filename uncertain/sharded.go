package uncertain

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
)

// ShardedTree partitions the object set across K independent Tree shards,
// each with its own store, buffer pool and writer lock. Objects are routed
// to a shard by a hash of their ID, and queries scatter-gather: every shard
// is searched concurrently and the partial answers are merged (with Stats
// summed via core's merge helpers).
//
// Compared to a single Tree, one query runs its shards' traversals
// concurrently, and writers on different shards proceed in parallel (each
// shard serializes only its own writers); readers never stall on writers
// at all — every shard query runs on a pinned snapshot of that shard's
// latest committed epoch.
//
// The split is by ID hash, not by space, so every shard sees queries from
// the whole domain; each sub-tree indexes a uniform 1/K sample of the
// data. Search results are returned sorted by ID (the merge order), and
// with Config.ExactRefinement they are identical — probabilities included
// — to a single tree over the same objects, whatever the shard count.
//
// NewSpatialShardedTree routes by location instead, giving the shards
// (mostly) disjoint root boxes. Every commit records its shard's root box,
// so the scatter-gather skips shards whose committed root box cannot
// intersect the query — see Search and NearestNeighbors.
type ShardedTree struct {
	shards []*Tree

	// Spatial routing state (NewSpatialShardedTree). Objects are routed by
	// their pdf-MBR center into equal slabs of domain along dimension 0
	// rather than by ID hash, so the per-shard root MBRs are prunable.
	// routes remembers each live object's shard for Delete-by-ID — the
	// sharded analogue of Tree's session-lifetime ID tracking.
	spatial  bool
	domain   Rect
	routesMu sync.Mutex
	routes   map[int64]int
}

// NewShardedTree creates an index with the given shard count. Every shard
// is built from cfg; with Config.Path set, shard i is backed by the file
// "<path>.shard<i>".
func NewShardedTree(shards int, cfg Config) (*ShardedTree, error) {
	if shards < 1 {
		return nil, fmt.Errorf("uncertain: shard count %d, need ≥ 1", shards)
	}
	s := &ShardedTree{shards: make([]*Tree, shards)}
	for i := range s.shards {
		scfg := cfg
		if cfg.Path != "" {
			scfg.Path = fmt.Sprintf("%s.shard%d", cfg.Path, i)
		}
		ct, err := NewTree(scfg)
		if err != nil {
			for _, built := range s.shards[:i] {
				built.Close()
			}
			return nil, fmt.Errorf("uncertain: shard %d: %w", i, err)
		}
		s.shards[i] = ct
	}
	return s, nil
}

// NewSpatialShardedTree creates an index whose shards partition the data
// domain into equal slabs along dimension 0 (objects are routed by their
// pdf-MBR center; objects outside the domain land in the nearest edge
// slab). Spatial sharding makes the per-shard root MBRs disjoint-ish,
// which is what gives shard pruning its teeth — under ID-hash sharding
// every shard covers the whole domain and no query can skip any of them.
//
// Because the shard is no longer derivable from the ID alone, Delete by
// bare ID only works for objects inserted (or bulk-loaded) through this
// handle during its lifetime; other objects need DeleteWithRegion, the
// same contract Tree has for reopened files.
func NewSpatialShardedTree(shards int, cfg Config, domain Rect) (*ShardedTree, error) {
	if !domain.IsValid() || domain.Side(0) <= 0 {
		return nil, fmt.Errorf("uncertain: spatial sharding needs a valid domain with positive extent on dimension 0, got %v", domain)
	}
	s, err := NewShardedTree(shards, cfg)
	if err != nil {
		return nil, err
	}
	s.spatial = true
	s.domain = domain.Clone()
	s.routes = make(map[int64]int)
	return s, nil
}

// Shards returns the shard count.
func (s *ShardedTree) Shards() int { return len(s.shards) }

// spatialIndex routes a region MBR to the slab holding its center,
// clamped to the edge slabs for out-of-domain objects.
func (s *ShardedTree) spatialIndex(mbr Rect) int {
	if mbr.Dim() == 0 {
		return 0
	}
	c := (mbr.Lo[0] + mbr.Hi[0]) / 2
	i := int(float64(len(s.shards)) * (c - s.domain.Lo[0]) / s.domain.Side(0))
	if i < 0 {
		i = 0
	}
	if i >= len(s.shards) {
		i = len(s.shards) - 1
	}
	return i
}

// shardIndex routes an object ID to its shard with a splitmix64-style
// finalizer, so dense sequential IDs still spread uniformly.
func (s *ShardedTree) shardIndex(id int64) int {
	h := uint64(id)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return int(h % uint64(len(s.shards)))
}

func (s *ShardedTree) shardFor(id int64) *Tree {
	return s.shards[s.shardIndex(id)]
}

// Insert adds an object to the shard owning its ID (hash sharding) or the
// slab holding its pdf-MBR center (spatial sharding); only that shard's
// writer lock is taken.
func (s *ShardedTree) Insert(id int64, pdf PDF) error {
	if !s.spatial {
		return s.shardFor(id).Insert(id, pdf)
	}
	i := s.spatialIndex(pdf.MBR())
	if err := s.shards[i].Insert(id, pdf); err != nil {
		return err
	}
	s.routesMu.Lock()
	s.routes[id] = i
	s.routesMu.Unlock()
	return nil
}

// Delete removes an object from the shard owning its ID. On a spatial
// index the shard is looked up in the session's routing table, so only
// objects inserted through this handle can be deleted by bare ID — others
// need DeleteWithRegion.
func (s *ShardedTree) Delete(id int64) error {
	if !s.spatial {
		return s.shardFor(id).Delete(id)
	}
	s.routesMu.Lock()
	i, ok := s.routes[id]
	s.routesMu.Unlock()
	if !ok {
		return fmt.Errorf("uncertain: id %d not routed in this session; use DeleteWithRegion", id)
	}
	if err := s.shards[i].Delete(id); err != nil {
		return err
	}
	s.routesMu.Lock()
	delete(s.routes, id)
	s.routesMu.Unlock()
	return nil
}

// DeleteWithRegion removes an object by ID and its region MBR. It is the
// deletion path that needs no session routing state: hash sharding
// derives the shard from the ID, spatial sharding from the MBR's center —
// exactly where Insert/BulkLoad placed the object.
func (s *ShardedTree) DeleteWithRegion(id int64, regionMBR Rect) error {
	if !s.spatial {
		return s.shardFor(id).DeleteWithRegion(id, regionMBR)
	}
	i := s.spatialIndex(regionMBR)
	if err := s.shards[i].DeleteWithRegion(id, regionMBR); err != nil {
		return err
	}
	s.routesMu.Lock()
	delete(s.routes, id)
	s.routesMu.Unlock()
	return nil
}

// shardOp is one buffered mutation of a sharded WriteBatch.
type shardOp struct {
	insert bool
	id     int64
	pdf    PDF
	mbr    Rect
	hasMBR bool
}

// shardedBatch buffers a WriteBatch's mutations, routed per shard, without
// applying anything — replay happens after fn returns successfully. On a
// spatial index routed tracks the batch's own pending inserts so a batch
// can delete by bare ID an object it inserted itself.
type shardedBatch struct {
	s      *ShardedTree
	ops    [][]shardOp
	routed map[int64]int // spatial only: batch-local insert routes
}

func (b *shardedBatch) Insert(id int64, pdf PDF) error {
	var i int
	if b.s.spatial {
		i = b.s.spatialIndex(pdf.MBR())
		b.routed[id] = i
	} else {
		i = b.s.shardIndex(id)
	}
	b.ops[i] = append(b.ops[i], shardOp{insert: true, id: id, pdf: pdf})
	return nil
}

func (b *shardedBatch) Delete(id int64) error {
	var i int
	if b.s.spatial {
		var ok bool
		if i, ok = b.routed[id]; !ok {
			b.s.routesMu.Lock()
			i, ok = b.s.routes[id]
			b.s.routesMu.Unlock()
			if !ok {
				return fmt.Errorf("uncertain: id %d not routed in this session; use DeleteWithRegion", id)
			}
		}
	} else {
		i = b.s.shardIndex(id)
	}
	b.ops[i] = append(b.ops[i], shardOp{id: id})
	return nil
}

func (b *shardedBatch) DeleteWithRegion(id int64, regionMBR Rect) error {
	var i int
	if b.s.spatial {
		i = b.s.spatialIndex(regionMBR)
	} else {
		i = b.s.shardIndex(id)
	}
	b.ops[i] = append(b.ops[i], shardOp{id: id, mbr: regionMBR, hasMBR: true})
	return nil
}

// WriteBatch buffers fn's mutations, partitions them by ID hash, and
// commits each shard's share as one per-shard batch, all shards
// concurrently. Atomicity is PER SHARD: within a shard readers see none or
// all of its share; across shards a reader may briefly observe some shards
// committed and others not (and a failed shard rolls back only its own
// share). fn itself runs before anything is applied, so an fn error has
// zero side effects.
func (s *ShardedTree) WriteBatch(fn func(BatchWriter) error) error {
	b := &shardedBatch{s: s, ops: make([][]shardOp, len(s.shards))}
	if s.spatial {
		b.routed = make(map[int64]int)
	}
	if err := fn(b); err != nil {
		return err
	}
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i := range s.shards {
		if len(b.ops[i]) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.shards[i].WriteBatch(func(w BatchWriter) error {
				for _, op := range b.ops[i] {
					var err error
					switch {
					case op.insert:
						err = w.Insert(op.id, op.pdf)
					case op.hasMBR:
						err = w.DeleteWithRegion(op.id, op.mbr)
					default:
						err = w.Delete(op.id)
					}
					if err != nil {
						return err
					}
				}
				return nil
			})
		}(i)
	}
	wg.Wait()
	if s.spatial {
		// Replay the committed shards' share into the routing table; a
		// failed shard rolled back its own share, so its routes stay as
		// they were.
		s.routesMu.Lock()
		for i := range s.shards {
			if errs[i] != nil {
				continue
			}
			for _, op := range b.ops[i] {
				if op.insert {
					s.routes[op.id] = i
				} else {
					delete(s.routes, op.id)
				}
			}
		}
		s.routesMu.Unlock()
	}
	return s.firstError(errs)
}

// BulkLoad partitions the batch — by ID hash, or by pdf-MBR center on a
// spatial index — and bulk-loads every shard concurrently; all shards
// must be empty.
func (s *ShardedTree) BulkLoad(objects map[int64]PDF) error {
	parts := make([]map[int64]PDF, len(s.shards))
	for i := range parts {
		parts[i] = make(map[int64]PDF, len(objects)/len(s.shards)+1)
	}
	for id, pdf := range objects {
		if s.spatial {
			parts[s.spatialIndex(pdf.MBR())][id] = pdf
		} else {
			parts[s.shardIndex(id)][id] = pdf
		}
	}
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i := range s.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.shards[i].BulkLoad(parts[i])
		}(i)
	}
	wg.Wait()
	if s.spatial {
		s.routesMu.Lock()
		for i := range parts {
			if errs[i] != nil {
				continue
			}
			for id := range parts[i] {
				s.routes[id] = i
			}
		}
		s.routesMu.Unlock()
	}
	return s.firstError(errs)
}

// pinShards pins every shard's latest committed epoch. The pins are
// independent, so under a live writer a merged answer reflects each shard's
// epoch at its own pin time — within one shard the view is always
// consistent. release closes them all.
func (s *ShardedTree) pinShards() (snaps []*core.Snapshot, release func()) {
	snaps = make([]*core.Snapshot, len(s.shards))
	for i, sh := range s.shards {
		snaps[i] = sh.inner.Snapshot()
	}
	return snaps, func() {
		for _, sn := range snaps {
			sn.Close()
		}
	}
}

// rootDisjoint reports whether a pinned shard epoch provably holds nothing
// inside rect: its root MBR (the p=0 boundary box, which contains every
// object region of the shard, recorded at every commit) is known and misses
// rect. The box is unknown (zero) for an empty shard; an unknown box never
// prunes.
func rootDisjoint(sn *core.Snapshot, rect Rect) bool {
	root := sn.RootMBR()
	return root.Dim() == rect.Dim() && root.IsValid() && !root.Intersects(rect)
}

// shardFatal reports whether one shard's error must stop its siblings:
// any real failure, unless the query opted into degraded answers. Budget
// exhaustion is never fatal to the fan-out.
func shardFatal(err error, plan core.QueryOpts) bool {
	return err != nil && !errors.Is(err, ErrBudgetExceeded) && !plan.AllowDegraded
}

// Search scatter-gathers a probabilistic range query: the shards run the
// query concurrently (each on a pinned snapshot of its latest committed
// epoch), and the partial results are
// concatenated, sorted by ID, and returned with the per-shard Stats
// merged.
//
// A shard whose committed root MBR is known and disjoint from rect cannot
// contribute a result and is skipped without being queried, counted in
// Stats.ShardsPruned. The pruning is purely subtractive of provably-empty
// work, so the merged answer is identical to the full fan-out; it only
// bites when the shards partition space (NewSpatialShardedTree). An invalid
// query is never pruned on — it is sent down so the usual validation error
// surfaces.
//
// Cancellation fans out: cancelling ctx (or passing its deadline) stops
// every shard's traversal, and the partial answers the shards had already
// found are merged and returned together with ctx.Err() — the same
// partial-result contract as a single tree. The first real shard error
// cancels the sibling shards instead of letting them run to completion
// and returns nothing — unless the query opted into degraded mode with
// WithAllowDegraded, in which case the healthy shards run to completion
// and the merged answer returns with ErrDegraded (fatal only when every
// shard failed). Per-shard page-budget exhaustion is likewise not fatal to
// the fan-out — the shards' answers are merged and returned with
// ErrBudgetExceeded.
func (s *ShardedTree) Search(ctx context.Context, rect Rect, prob float64, opts ...QueryOption) ([]Result, Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	plan := resolveOptions(opts)
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	snaps, release := s.pinShards()
	defer release()
	canPrune := rect.IsValid() && prob > 0 && prob <= 1
	pruned := 0
	partRes := make([][]Result, len(s.shards))
	partStats := make([]Stats, len(s.shards))
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i := range s.shards {
		if canPrune && rootDisjoint(snaps[i], rect) {
			pruned++
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			partRes[i], partStats[i], errs[i] = snaps[i].RangeQuery(sctx, core.Query{Rect: rect, Prob: prob}, plan)
			if shardFatal(errs[i], plan) {
				cancel() // first real failure stops the sibling shards
			}
		}(i)
	}
	wg.Wait()
	softErr, err := s.gatherError(ctx, errs, plan.AllowDegraded)
	if err != nil {
		return nil, Stats{}, err
	}
	var out []Result
	var stats Stats
	for i := range s.shards {
		out = append(out, partRes[i]...)
		stats.Add(partStats[i])
	}
	stats.ShardsPruned += pruned
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	if plan.Limit > 0 && len(out) > plan.Limit {
		out = out[:plan.Limit]
	}
	return out, stats, softErr
}

// NearestNeighbors scatter-gathers an expected-distance k-NN query: each
// shard reports its own top k concurrently, and the k-way merge keeps the
// k globally smallest expected distances. The merge is exact — an object
// in the global top k is necessarily in its own shard's top k. See Search
// for the cancellation and budget fan-out semantics.
//
// The shards share a k-th-distance upper bound: each publishes its own
// k-th best once its list fills, and every shard's best-first loop stops
// as soon as its frontier's lower bound exceeds the shared value
// (NNStats.BoundPruned) — the remaining candidates are provably outside
// the merged top k. When some shard's committed root MBR is known (see
// Search; every non-empty shard's is), the shards are additionally ranked
// by min-distance from q to that box (unknown boxes rank first and are
// never skipped): the nearest shard runs first to seed the bound, the rest
// then run concurrently, and a shard whose min-distance already exceeds
// the bound at launch is skipped outright (NNStats.ShardsPruned) — every
// object it holds has expected distance at least that min-distance. With
// no box known (every shard empty) there is nothing to rank on and every
// shard launches at once. Results are identical to the full fan-out either
// way.
func (s *ShardedTree) NearestNeighbors(ctx context.Context, q Point, k int, opts ...QueryOption) ([]Neighbor, NNStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	plan := resolveOptions(opts)
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	snaps, release := s.pinShards()
	defer release()
	type rankedShard struct {
		idx int
		d   float64 // min possible expected distance of any object in the shard
	}
	order := make([]rankedShard, len(s.shards))
	ranked := false
	for i := range s.shards {
		order[i].idx = i
		if root := snaps[i].RootMBR(); root.Dim() == len(q) && root.IsValid() {
			order[i].d = core.MinDist(q, root)
			ranked = true
		}
	}
	sort.Slice(order, func(a, b int) bool {
		if order[a].d != order[b].d {
			return order[a].d < order[b].d
		}
		return order[a].idx < order[b].idx
	})
	bound := core.NewNNBound()
	plan.NNBound = bound
	partRes := make([][]Neighbor, len(s.shards))
	partStats := make([]NNStats, len(s.shards))
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	run := func(i int) {
		defer wg.Done()
		partRes[i], partStats[i], errs[i] = snaps[i].NearestNeighbors(sctx, q, k, plan)
		if shardFatal(errs[i], plan) {
			cancel() // the siblings' traversals stop at their next pop
		}
	}
	if ranked {
		wg.Add(1)
		run(order[0].idx)
		order = order[1:]
	}
	pruned := 0
	for _, r := range order {
		// Strict >: a shard tying the bound may still hold an
		// equal-distance, smaller-ID neighbor the merge must see.
		if r.d > bound.Load() {
			pruned++
			continue
		}
		wg.Add(1)
		go run(r.idx)
	}
	wg.Wait()
	softErr, err := s.gatherError(ctx, errs, plan.AllowDegraded)
	if err != nil {
		return nil, NNStats{}, err
	}
	var merged []Neighbor
	var stats NNStats
	for i := range s.shards {
		merged = append(merged, partRes[i]...)
		stats.Add(partStats[i])
	}
	stats.ShardsPruned += pruned
	sort.Slice(merged, func(a, b int) bool {
		if merged[a].ExpectedDist != merged[b].ExpectedDist {
			return merged[a].ExpectedDist < merged[b].ExpectedDist
		}
		return merged[a].ID < merged[b].ID // deterministic tie-break
	})
	if plan.Limit > 0 && plan.Limit < k {
		k = plan.Limit
	}
	if len(merged) > k {
		merged = merged[:k]
	}
	return merged, stats, softErr
}

// gatherError classifies the per-shard errors of one scatter-gather into a
// soft error — budget exhaustion or the caller's cancellation, where the
// shards' partial answers are still merged and returned alongside the
// error, honoring the Index contract — and a fatal one (any real shard
// failure), where nothing is returned. Context errors are reported bare so
// callers can match them with errors.Is against context.Canceled /
// DeadlineExceeded, and a real shard error wins over the context errors
// its cancel() induced on the sibling shards; cancellation wins over
// budget exhaustion.
//
// With allowDegraded (WithAllowDegraded), real shard failures become soft
// too — the merged answer carries a *DegradedError naming the failed
// shards — unless EVERY shard failed, which stays fatal: there is no
// healthy remainder to serve. The caller's own cancellation still wins
// over degraded reporting.
func (s *ShardedTree) gatherError(ctx context.Context, errs []error, allowDegraded bool) (soft, fatal error) {
	var budgetErr, ctxErr error
	var failed []int
	var failedErrs []error
	for i, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, ErrBudgetExceeded):
			if budgetErr == nil {
				budgetErr = fmt.Errorf("uncertain: shard %d: %w", i, err)
			}
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			if ctxErr == nil {
				ctxErr = err
			}
		default:
			if !allowDegraded {
				return nil, fmt.Errorf("uncertain: shard %d: %w", i, err)
			}
			failed = append(failed, i)
			failedErrs = append(failedErrs, err)
		}
	}
	if len(failed) == len(s.shards) && len(s.shards) > 0 {
		// Degraded mode cannot help when no shard answered.
		return nil, fmt.Errorf("uncertain: all %d shards failed; first: shard %d: %w",
			len(s.shards), failed[0], failedErrs[0])
	}
	if ctxErr != nil {
		if cerr := ctx.Err(); cerr != nil {
			return cerr, nil // the caller's context, not a sibling-induced cancel
		}
		return ctxErr, nil
	}
	if len(failed) > 0 {
		return &DegradedError{Shards: failed, Errs: failedErrs}, nil
	}
	return budgetErr, nil
}

// Len sums the object counts over all shards.
func (s *ShardedTree) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Len()
	}
	return n
}

// GCInfo merges the shards' epoch-collector health reports: epochs take
// the max, counters sum.
func (s *ShardedTree) GCInfo() GCInfo {
	var info GCInfo
	for _, sh := range s.shards {
		info.Add(sh.GCInfo())
	}
	return info
}

// CacheStats sums the shards' buffer-pool hit/miss counters.
func (s *ShardedTree) CacheStats() (hits, misses int64) {
	for _, sh := range s.shards {
		h, m := sh.CacheStats()
		hits += h
		misses += m
	}
	return hits, misses
}

// NodeCacheStats sums the shards' decoded-node-cache hit/miss counters.
func (s *ShardedTree) NodeCacheStats() (hits, misses int64) {
	for _, sh := range s.shards {
		h, m := sh.NodeCacheStats()
		hits += h
		misses += m
	}
	return hits, misses
}

// eachShard runs fn on every shard — all of them, even after a failure —
// and returns the first error, annotated with its shard.
func (s *ShardedTree) eachShard(fn func(*Tree) error) error {
	errs := make([]error, len(s.shards))
	for i, sh := range s.shards {
		errs[i] = fn(sh)
	}
	return s.firstError(errs)
}

// Flush writes every shard's buffered dirty pages through to its store and
// drains the retired pages its snapshot pins allow.
func (s *ShardedTree) Flush() error { return s.eachShard((*Tree).Flush) }

// CheckInvariants validates every shard's structure.
func (s *ShardedTree) CheckInvariants() error {
	for i, sh := range s.shards {
		if err := sh.CheckInvariants(); err != nil {
			return fmt.Errorf("uncertain: shard %d: %w", i, err)
		}
	}
	return nil
}

// Close closes every shard; every shard is closed even if one fails, and
// the first error is returned. Idempotent (each shard's Close is).
func (s *ShardedTree) Close() error { return s.eachShard((*Tree).Close) }

// Discard releases every shard without committing (see Tree.Discard);
// idempotent and safe after Close.
func (s *ShardedTree) Discard() error { return s.eachShard((*Tree).Discard) }

// firstError returns the first non-nil error, annotated with its shard.
func (s *ShardedTree) firstError(errs []error) error {
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("uncertain: shard %d: %w", i, err)
		}
	}
	return nil
}
