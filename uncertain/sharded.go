package uncertain

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
)

// ShardedTree partitions the data domain into K equal slabs along
// dimension 0, one independent Tree shard each, with its own store, write
// buffer and epoch. An object lives in the slab holding its pdf-MBR center.
// A query searches the shards one after another on the caller's goroutine
// and merges their answers (with Stats summed via core's merge helpers).
// Every commit records its shard's root box, so a query skips a shard whose
// committed root box cannot hold an answer — see Search and
// NearestNeighbors. Readers never stall on writers: every shard query runs
// on a pinned snapshot of that shard's latest committed epoch.
//
// What sharding buys is write throughput: a WriteBatch commits its
// per-shard shares concurrently, and BulkLoad loads the shards in parallel.
// Writers of the whole index are serialized by one lock, held from the
// duplicate-ID check through the apply, so an ID addresses one object in
// the whole index: Insert refuses an ID any shard holds, and Delete(id)
// finds the shard whose directory holds it.
//
// Search results are returned sorted by ID (the merge order). With
// Config.ExactRefinement they are identical — probabilities included — to
// a single tree over the same objects, whatever the shard count. Under
// Monte-Carlo refinement they are not: every shard seeds its refinement
// sampler from the same (Config.Seed, query) pair and draws from it over
// its own candidates in its own (page, slot) order, so a refined object's
// Prob depends on which candidates share its shard. A validated object
// (Prob = -1) does not; a refined one near the threshold can fall on the
// other side of it.
type ShardedTree struct {
	shards []*Tree
	domain Rect // the slabs split it along dimension 0

	// wmu serializes the index's writers (Insert, Delete, WriteBatch,
	// BulkLoad) from the owner check through the apply; queries never take
	// it.
	wmu sync.Mutex
}

// NewSpatialShardedTree creates an index whose shards partition domain
// into equal slabs along dimension 0 (objects are routed by their pdf-MBR
// center; objects outside the domain land in the nearest edge slab), which
// keeps the per-shard root boxes disjoint-ish — what gives shard pruning
// its teeth. Every shard is built from cfg; with Config.Path set, shard i
// is backed by the file "<path>.shard<i>".
func NewSpatialShardedTree(shards int, cfg Config, domain Rect) (*ShardedTree, error) {
	if shards < 1 {
		return nil, fmt.Errorf("uncertain: shard count %d, need ≥ 1", shards)
	}
	if !domain.IsValid() || domain.Side(0) <= 0 {
		return nil, fmt.Errorf("uncertain: spatial sharding needs a valid domain with positive extent on dimension 0, got %v", domain)
	}
	s := &ShardedTree{shards: make([]*Tree, shards), domain: domain.Clone()}
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

// Shards returns the shard count.
func (s *ShardedTree) Shards() int { return len(s.shards) }

// slab routes a pdf to the slab holding its MBR's center, clamped to the
// edge slabs for out-of-domain objects; a nil or 0-dimensional pdf goes
// to slab 0, whose tree refuses it.
func (s *ShardedTree) slab(pdf PDF) int {
	if pdf == nil || pdf.Dim() == 0 {
		return 0
	}
	mbr := pdf.MBR()
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

// owner returns the shard whose directory holds id, or -1.
func (s *ShardedTree) owner(id int64) int {
	for i, sh := range s.shards {
		if sh.holds(id) {
			return i
		}
	}
	return -1
}

// Insert adds an object to the slab holding its pdf-MBR center. An ID
// that any shard holds returns ErrDuplicateID and mutates nothing.
func (s *ShardedTree) Insert(id int64, pdf PDF) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.owner(id) >= 0 {
		return fmt.Errorf("uncertain: id %d: %w", id, ErrDuplicateID)
	}
	return s.shards[s.slab(pdf)].Insert(id, pdf)
}

// Delete removes an object from the shard that holds it. An ID no shard
// holds returns ErrNotFound and mutates nothing.
func (s *ShardedTree) Delete(id int64) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	i := s.owner(id)
	if i < 0 {
		return fmt.Errorf("uncertain: id %d: %w", id, ErrNotFound)
	}
	return s.shards[i].Delete(id)
}

// shardOp is one buffered mutation of a sharded WriteBatch.
type shardOp struct {
	insert bool
	id     int64
	pdf    PDF
}

// shardedBatch buffers a WriteBatch's mutations, routed per shard, without
// applying anything — replay happens after fn returns successfully. owners
// is the batch's own view of the IDs it touched: the shard each is pending
// in, or -1 once the batch deleted it.
type shardedBatch struct {
	s      *ShardedTree
	ops    [][]shardOp
	owners map[int64]int
}

// owner is ShardedTree.owner as of the batch's pending mutations.
func (b *shardedBatch) owner(id int64) int {
	if i, ok := b.owners[id]; ok {
		return i
	}
	return b.s.owner(id)
}

func (b *shardedBatch) Insert(id int64, pdf PDF) error {
	if b.owner(id) >= 0 {
		return fmt.Errorf("uncertain: id %d: %w", id, ErrDuplicateID)
	}
	i := b.s.slab(pdf)
	b.ops[i] = append(b.ops[i], shardOp{insert: true, id: id, pdf: pdf})
	b.owners[id] = i
	return nil
}

func (b *shardedBatch) Delete(id int64) error {
	i := b.owner(id)
	if i < 0 {
		return fmt.Errorf("uncertain: id %d: %w", id, ErrNotFound)
	}
	b.ops[i] = append(b.ops[i], shardOp{id: id})
	b.owners[id] = -1
	return nil
}

// WriteBatch buffers fn's mutations, partitions them by shard, and
// commits each shard's share as one per-shard batch, all shards
// concurrently. Atomicity is PER SHARD: within a shard readers see none or
// all of its share; across shards a reader may briefly observe some shards
// committed and others not (and a failed shard rolls back only its own
// share). fn itself runs before anything is applied, so an fn error has
// zero side effects. ErrDuplicateID and ErrNotFound are decided when fn
// calls Insert or Delete, against the shards and the batch's own pending
// mutations. The index's writer lock is held across fn and the commit, so
// fn must not call the ShardedTree's own Insert, Delete or WriteBatch.
func (s *ShardedTree) WriteBatch(fn func(BatchWriter) error) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	b := &shardedBatch{s: s, ops: make([][]shardOp, len(s.shards)), owners: make(map[int64]int)}
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
					if op.insert {
						err = w.Insert(op.id, op.pdf)
					} else {
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
	return s.firstError(errs)
}

// BulkLoad partitions the batch by pdf-MBR center and bulk-loads every
// shard concurrently; all shards must be empty.
func (s *ShardedTree) BulkLoad(objects map[int64]PDF) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	parts := make([]map[int64]PDF, len(s.shards))
	for i := range parts {
		parts[i] = make(map[int64]PDF, len(objects)/len(s.shards)+1)
	}
	for id, pdf := range objects {
		parts[s.slab(pdf)][id] = pdf
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
	return s.firstError(errs)
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

// Search answers a probabilistic range query shard by shard: each shard
// is pinned at its latest committed epoch, queried and released in turn,
// and the partial results are concatenated, sorted by ID, and returned with
// the per-shard Stats merged. Each shard cuts at WithLimit's n before the
// merge truncates to n. The pins are independent, so under a live writer
// the merged answer reflects each shard's epoch at its own pin time.
//
// A shard whose committed root MBR is known and disjoint from rect cannot
// contribute a result and is skipped without being queried, counted in
// Stats.ShardsPruned. The pruning is purely subtractive of provably-empty
// work, so the merged answer is identical to querying every shard. An
// invalid query is never pruned on — it is sent down so the usual
// validation error surfaces.
//
// Cancelling ctx (or passing its deadline) stops the shard being searched
// and skips the rest; the answers found so far are merged and returned
// together with ctx.Err() — the same partial-result contract as a single
// tree. Any other shard error returns nothing.
func (s *ShardedTree) Search(ctx context.Context, rect Rect, prob float64, opts ...QueryOption) ([]Result, Stats, error) {
	plan := resolveOptions(opts)
	canPrune := rect.IsValid() && prob > 0 && prob <= 1
	var out []Result
	var stats Stats
	var stopped error
	for i, sh := range s.shards {
		snap := sh.inner.Snapshot()
		if canPrune && rootDisjoint(snap, rect) {
			snap.Close()
			stats.ShardsPruned++
			continue
		}
		part, ps, err := snap.RangeQuery(ctx, core.Query{Rect: rect, Prob: prob}, plan)
		snap.Close()
		var fatal error
		if stopped, fatal = shardErr(ctx, i, err); fatal != nil {
			return nil, Stats{}, fatal
		}
		out = append(out, part...)
		stats.Add(ps)
		if stopped != nil {
			break
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	if plan.Limit > 0 && len(out) > plan.Limit {
		out = out[:plan.Limit]
	}
	return out, stats, stopped
}

// NearestNeighbors answers an expected-distance k-NN query shard by shard,
// nearest shard first, keeping the merged list of the k smallest expected
// distances so far, ordered by (distance, ID). The merge is exact — an
// object in the global top k is necessarily in its own shard's top k. Every
// shard is pinned up front, since the order needs their root boxes; see
// Search for cancellation.
//
// The shards go in the order of the distance from q to their committed
// root box (unknown boxes, of empty shards, rank first and are never
// skipped). Once the merged list holds k neighbours, its k-th distance
// bounds the rest: a shard whose box is farther away is skipped outright
// (NNStats.ShardsPruned) — every object it holds has expected distance at
// least that far — and a shard that is searched stops as soon as its
// frontier's lower bound exceeds it (NNStats.BoundPruned). Both tests are
// strict, so a later shard's neighbour at exactly the k-th distance with a
// smaller ID still displaces the merged k-th. The bound only shrinks from
// shard to shard, and results are identical to searching every shard in
// full.
func (s *ShardedTree) NearestNeighbors(ctx context.Context, q Point, k int, opts ...QueryOption) ([]Neighbor, NNStats, error) {
	plan := resolveOptions(opts)
	if plan.Limit > 0 && plan.Limit < k {
		k = plan.Limit
	}
	type rankedShard struct {
		snap *core.Snapshot
		idx  int
		d    float64 // min possible expected distance of any object in the shard
	}
	order := make([]rankedShard, len(s.shards))
	for i, sh := range s.shards {
		order[i] = rankedShard{snap: sh.inner.Snapshot(), idx: i}
		if root := order[i].snap.RootMBR(); root.Dim() == len(q) && root.IsValid() {
			order[i].d = core.MinDist(q, root)
		}
	}
	defer func() {
		for _, r := range order {
			r.snap.Close()
		}
	}()
	sort.Slice(order, func(a, b int) bool {
		if order[a].d != order[b].d {
			return order[a].d < order[b].d
		}
		return order[a].idx < order[b].idx
	})
	var merged []Neighbor
	var stats NNStats
	var stopped error
	for _, r := range order {
		if k > 0 && len(merged) == k {
			if r.d > merged[k-1].ExpectedDist {
				stats.ShardsPruned++
				continue
			}
			plan.MaxDist = merged[k-1].ExpectedDist
		}
		part, ps, err := r.snap.NearestNeighbors(ctx, q, k, plan)
		var fatal error
		if stopped, fatal = shardErr(ctx, r.idx, err); fatal != nil {
			return nil, NNStats{}, fatal
		}
		merged = append(merged, part...)
		sort.Slice(merged, func(a, b int) bool {
			if merged[a].ExpectedDist != merged[b].ExpectedDist {
				return merged[a].ExpectedDist < merged[b].ExpectedDist
			}
			return merged[a].ID < merged[b].ID // deterministic tie-break
		})
		if len(merged) > k {
			merged = merged[:k]
		}
		stats.Add(ps)
		if stopped != nil {
			break
		}
	}
	return merged, stats, stopped
}

// shardErr sorts the error shard i's query returned. The caller's context
// ending is soft: it comes back bare, so callers can match it with
// errors.Is, and the answers merged so far go with it. Anything else is the
// shard's failure, annotated with the shard, and the query returns nothing.
func shardErr(ctx context.Context, i int, err error) (soft, fatal error) {
	switch {
	case err == nil:
		return nil, nil
	case ctx != nil && ctx.Err() != nil && errors.Is(err, ctx.Err()):
		return ctx.Err(), nil
	default:
		return nil, fmt.Errorf("uncertain: shard %d: %w", i, err)
	}
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

// CacheStats sums the shards' write-buffer hit/miss counters.
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
