// Package uncertain is the public API of the U-tree library: indexing
// multi-dimensional uncertain data with arbitrary probability density
// functions, after Tao, Cheng, Xiao, Ngai, Kao and Prabhakar (VLDB 2005).
//
// An uncertain object is a point whose position is described by a pdf over
// an uncertainty region. The U-tree answers probabilistic range queries —
// "find the objects inside rectangle r with probability at least p" —
// while avoiding expensive appearance-probability integration for almost
// all objects, using pre-computed probabilistically constrained regions
// compressed into linear conservative functional boxes.
//
// Quick start:
//
//	tree, _ := uncertain.NewTree(uncertain.Config{Dimensions: 2})
//	tree.Insert(1, uncertain.UniformCircle(uncertain.Pt(300, 400), 25))
//	results, _, _ := tree.Search(context.Background(),
//		uncertain.Box(uncertain.Pt(250, 350), uncertain.Pt(350, 450)), 0.8)
//
// Queries take a context (cancellation, deadlines) and per-query options
// (WithLimit); a k-NN query's precision is Config.MonteCarloSamples. See
// examples/ for complete programs.
package uncertain

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/pagefile"
	"repro/internal/updf"
)

// Point is a position in d-dimensional space.
type Point = geom.Point

// Rect is an axis-aligned hyper-rectangle.
type Rect = geom.Rect

// PDF is a probability density function over an uncertainty region. The
// eight families the constructors build — UniformCircle, UniformBox,
// ConstrainedGaussian, TruncatedGaussianBox, ExponentialBox, Histogram,
// UniformPolygon and MixturePDF — are the supported set; Insert refuses any
// other type. Adding a family means adding a codec tag, an ExactProb and
// their tests to updf.
type PDF = updf.PDF

// Result is one object qualifying a probabilistic range query. When the
// index validated the object directly from its PCRs (the query covers its
// region, or the probability lower bound read off them reaches the
// threshold) — the paper's headline saving — no appearance probability
// was ever computed: Validated is true
// and Prob is -1 ("validated without probability computation"). The same
// holds for a refinement candidate whose record was read and whose pdf's
// own marginals — its shape's, at the leaf, where that decides — then put
// the lower bound at the threshold. Prob holds the
// computed probability only for objects whose probability had to be
// computed to decide them: the pdf's ExactProb over the query rectangle
// (Equation 2), bit for bit.
type Result = core.Result

// Stats reports the cost of one query in the paper's metrics: node
// accesses, appearance-probability computations, directly-validated counts
// and refinement I/Os. QuantilePruned counts the subtrees the descent cut
// on its objects' quantiles where Observation 4 let them pass. Candidates
// is the paper's "probability computations" (what the leaf filter left
// undecided); ProbComputations counts those that were in fact integrated,
// MarginalValidated and MarginalPruned those decided on their pdf's
// marginals instead — ShapeDecided of them before their record was read.
type Stats = core.QueryStats

// Pt builds a Point.
func Pt(coords ...float64) Point { return Point(coords) }

// Box builds a rectangle from its corners; it panics on malformed corners.
func Box(lo, hi Point) Rect { return geom.NewRect(lo, hi) }

// UniformCircle is a uniform pdf over a d-dimensional ball (circle, sphere)
// — the paper's location-uncertainty model.
func UniformCircle(center Point, radius float64) PDF {
	return updf.NewUniformBall(center, radius)
}

// UniformBox is a uniform pdf over a rectangle.
func UniformBox(region Rect) PDF { return updf.NewUniformRect(region) }

// ConstrainedGaussian is the paper's Con-Gau (Equation 16): an isotropic
// Gaussian centered on the ball, renormalized over it.
func ConstrainedGaussian(center Point, radius, sigma float64) PDF {
	return updf.NewConGauBall(center, radius, sigma)
}

// TruncatedGaussianBox is an independent-Gaussian product truncated to a
// rectangle (closed-form marginals and probabilities).
func TruncatedGaussianBox(region Rect, mean Point, sigma []float64) PDF {
	return updf.NewGaussRect(region, mean, sigma)
}

// ExponentialBox is a truncated exponential product on a rectangle — a
// heavily skewed (Zipf-like) model.
func ExponentialBox(region Rect, rates []float64) PDF {
	return updf.NewExpoRect(region, rates)
}

// Histogram is a piecewise-constant pdf on a grid over a rectangle: the
// "arbitrary pdf" workhorse — any density can be approximated this way.
// weights are row-major cell masses (normalized internally).
func Histogram(region Rect, bins []int, weights []float64) PDF {
	return updf.NewHistogramRect(region, bins, weights)
}

// Config parameterizes a Tree.
type Config struct {
	// Dimensions of the data space (required).
	Dimensions int
	// CatalogSize m (0 → the paper's default, 15; at most 32; a reopened
	// U-PCR file keeps its own, 9 by default).
	CatalogSize int
	// MonteCarloSamples is the sample count of a k-NN query's
	// expected-distance estimate (0 → 10000). Range refinement computes
	// each candidate's appearance probability exactly (Equation 2) and
	// draws no samples.
	MonteCarloSamples int
	// ExactRefinement is read by nothing: range refinement is always exact.
	//
	// Deprecated: has no effect.
	ExactRefinement bool
	// Path makes the index file-backed (empty → in-memory).
	Path string
	// Seed is read by nothing: range answers depend on no sampler, and a
	// k-NN query seeds each object's estimate from its ID.
	//
	// Deprecated: has no effect.
	Seed int64
	// BufferPages is read by nothing: an open batch keeps every node page
	// it writes until its commit writes each once.
	//
	// Deprecated: has no effect.
	BufferPages int
	// NodeCacheEntries sizes the decoded-node cache, the tree's one read
	// cache: committed tree pages are immutable under the copy-on-write
	// epoch protocol, so their decoded in-memory nodes are shared across
	// queries (and across lock-free snapshot readers) until the page is
	// physically reclaimed. A hit skips the page read and the node decode
	// entirely; a miss reads the store. A hot query still allocates — 17
	// times and 10.7 KB a query in BenchmarkFig9SearchHotCache, for its
	// results and the pdfs its records decode to — but not per node it
	// visits or data page it reads. A cached node views its page: on a
	// memory tree the store's own page, so an entry costs a 128-byte node
	// and no page of its own; on a file tree the 4,096-byte buffer the page
	// was read into, so the default of 1024 entries (0) is ≈ 4 MiB there.
	// Negative disables the cache. A full cache evicts a leaf, and an
	// inner node only when it holds no leaf: every descent passes through
	// the inner levels, so a cache smaller than the tree keeps them and
	// misses on leaves. The leaf evicted is the least recently used one,
	// unless it has been fetched more often of late than the leaf being
	// added, which then goes instead: queries centred where the data is
	// come back to the same leaves, and the cache keeps those.
	//
	// Switched off on the benchmark's warm workloads (one run each on a
	// 2-core Linux VM), page reads per query rise 6× on the LB workloads
	// and 50× on the 3-D sharded one, and a query's median latency rises
	// 1.7× on the 3-D sharded and churn workloads. On the cold CA workload
	// (a 101-page tree, 32 entries) a query reads 4.89 pages, 5.36 when
	// the least recently used leaf always goes.
	// Its price is heap, about a page per cached node: 1.3–2.0 MB, 28–40 %
	// of the warm workloads' live heap.
	NodeCacheEntries int
	// WrapStore, when set, wraps the base page store (file or memory), and
	// the tree writes the store it returns — the fault-injection and
	// instrumentation hook (e.g. pagefile.ChaosStore, whose latency rules
	// also make a slow store). A wrapped memory store is read by copy: only
	// a bare one lends readers its pages. Production code leaves it nil. An error from the wrapped
	// store fails the operation that hit it and is returned to the caller
	// unretried.
	WrapStore func(pagefile.Store) pagefile.Store
	// AdaptivePlanning is read by nothing: every commit records the root box
	// that shard pruning and NN shard ranking use.
	//
	// Deprecated: has no effect.
	AdaptivePlanning bool
}

// Tree is a dynamic index over uncertain objects, shared across goroutines
// with snapshot isolation: every query pins the latest committed epoch and
// traverses it with NO lock held, while mutations — serialized among
// themselves by a writer mutex — build copy-on-write shadow pages and
// atomically publish a new epoch on commit. A long-running query therefore
// never blocks a writer and a slow writer never stalls a single read; a
// query sees exactly the epoch that was committed when it started (queries
// started before a delete still return the deleted object; queries started
// after do not). Retired pages are reclaimed by the first commit (or Flush,
// or Close) after no snapshot pins them. A single goroutine pays one
// uncontended mutex per mutation and nothing per query.
//
// Every completed mutation outside a WriteBatch is its own epoch, so reads
// follow writes immediately; a WriteBatch stays invisible to Search,
// NearestNeighbors and Len until it returns. A Tree starts no goroutine
// that outlives a call.
type Tree struct {
	mu      sync.Mutex // serializes writers; the read path takes no lock
	inner   *core.Tree // owns the ID directory and rolls it back with its pages
	file    *pagefile.FileStore
	closed  bool // set by Close/Discard; makes both idempotent
	inBatch bool // WriteBatch in progress (batch.go), under mu
}

// ConcurrentTree is the former name of the snapshot-isolated tree; every
// Tree is one now.
//
// Deprecated: use Tree.
type ConcurrentTree = Tree

// NewConcurrentTree is NewTree.
//
// Deprecated: use NewTree.
func NewConcurrentTree(cfg Config) (*ConcurrentTree, error) { return NewTree(cfg) }

// fileMetaPage is where a file-backed index keeps its metadata: the first
// page after the store header, reserved by core before the root.
const fileMetaPage pagefile.PageID = 1

// ErrConfigMismatch is returned by OpenTree when a structural Config field
// (Dimensions, CatalogSize) is set and disagrees with the file. Test
// with errors.Is.
var ErrConfigMismatch = errors.New("uncertain: config disagrees with the index file")

// ErrDuplicateID is returned by Insert when the ID is already live in the
// index (in any shard of a ShardedTree). Nothing is mutated, and an open
// WriteBatch stays usable. Test with errors.Is.
var ErrDuplicateID = core.ErrDuplicateID

// ErrNotFound is returned by Delete when no live object has the ID. Nothing
// is mutated, and an open WriteBatch stays usable. Test with errors.Is.
var ErrNotFound = core.ErrNotFound

// NewTree creates an empty index. A Config it refuses leaves the file at
// Path as it was.
func NewTree(cfg Config) (*Tree, error) {
	if err := cfg.options().Check(); err != nil {
		return nil, err
	}
	var fs *pagefile.FileStore
	if cfg.Path != "" {
		var err error
		if fs, err = pagefile.CreateFileStore(cfg.Path); err != nil {
			return nil, err
		}
	}
	t, opt := newHandle(cfg, fs)
	// A file-backed tree commits through its metadata page from the first
	// (empty) epoch on, so even a process that dies before its first
	// mutation leaves a reopenable file.
	opt.Persist = fs != nil
	inner, err := core.New(opt)
	if err != nil {
		if fs != nil {
			fs.Close()
		}
		return nil, err
	}
	t.inner = inner
	return t, nil
}

// OpenTree reopens a file-backed index created with Config.Path. The
// structure (dimensions, variant, catalog size) comes from the file — a
// U-PCR file, built by the paper's experiments or an older release, opens
// as one; a non-zero Config.Dimensions or CatalogSize that disagrees with
// it fails with ErrConfigMismatch. Recovering the last committed epoch
// walks it once: the leaves give back every object's ID and record
// address, so Delete(id) works on the reopened tree as on a new one, and
// every page it does not reach is free again: the last session's free
// pages, and what a crash may have leaked — shadow pages retired by a
// published epoch that died before its garbage drained, or fresh pages of
// an aborted batch.
func OpenTree(path string, cfg Config) (*Tree, error) {
	fs, err := pagefile.OpenFileStore(path)
	if err != nil {
		return nil, err
	}
	t, opt := newHandle(cfg, fs)
	inner, reach, err := core.Open(opt.Store, fileMetaPage, opt)
	if err == nil {
		// The walk went through the wrapped store (fault injection
		// applies); what it did not reach is freed directly in the file's
		// allocator, below the tree's epochs.
		fs.Retain(reach)
		t.inner = inner
		err = cfg.checkStructure(inner)
	}
	if err != nil {
		fs.Close()
		return nil, err
	}
	return t, nil
}

// newHandle is the part NewTree and OpenTree share: the Tree shell, the
// store stack over fs (nil → memory), and cfg mapped to core options.
//
// The stack is base → Config.WrapStore, and core.Tree writes the store
// that returns: its copy-on-write epochs, the writer's dirty pages and the
// decoded-node cache sit above it, in core.
func newHandle(cfg Config, fs *pagefile.FileStore) (*Tree, core.Options) {
	t := &Tree{file: fs}
	var store pagefile.Store = pagefile.NewMemStore()
	if fs != nil {
		store = fs
	}
	if cfg.WrapStore != nil {
		store = cfg.WrapStore(store)
	}
	opt := cfg.options()
	opt.Store = store
	return t, opt
}

// options is cfg mapped to core options, without a store.
func (cfg Config) options() core.Options {
	return core.Options{
		Dim:              cfg.Dimensions,
		CatalogSize:      cfg.CatalogSize,
		MCSamples:        cfg.MonteCarloSamples,
		NodeCacheEntries: cfg.NodeCacheEntries,
	}
}

// checkStructure compares cfg's structural fields with a reopened tree;
// zero means "take it from the file".
func (cfg Config) checkStructure(inner *core.Tree) error {
	switch {
	case cfg.Dimensions != 0 && cfg.Dimensions != inner.Dim():
		return fmt.Errorf("%w: Dimensions %d, file has %d", ErrConfigMismatch, cfg.Dimensions, inner.Dim())
	case cfg.CatalogSize != 0 && cfg.CatalogSize != inner.Catalog().Size():
		return fmt.Errorf("%w: CatalogSize %d, file has %d", ErrConfigMismatch, cfg.CatalogSize, inner.Catalog().Size())
	}
	return nil
}

// rollback rewinds every uncommitted mutation — the failing one and any
// batched ones before it — to the last committed epoch, the directory with
// them. The mutation's error wins over any rollback error; when batched ops
// were dropped with it, the error says so.
func (t *Tree) rollback(opErr error) error {
	dropped := t.inner.Uncommitted()
	if rbErr := t.inner.Rollback(); rbErr != nil {
		return fmt.Errorf("%w (rollback also failed: %w)", opErr, rbErr)
	}
	if dropped > 1 {
		return fmt.Errorf("%w (rolled back %d uncommitted batched operations)", opErr, dropped)
	}
	return opErr
}

// settle ends a mutation that returned err. ErrDuplicateID and ErrNotFound
// mutated nothing; any other error rolls back to the last committed epoch.
func (t *Tree) settle(err error) error {
	switch {
	case errors.Is(err, ErrDuplicateID) || errors.Is(err, ErrNotFound):
		return err
	case err != nil:
		return t.rollback(err)
	}
	return t.endOp()
}

// Insert adds an object (writer lock). An ID that is already live returns
// ErrDuplicateID and mutates nothing. The insert publishes as its own
// epoch; wrap several in WriteBatch to publish them as one. On failure the
// tree rolls back to the last committed epoch and remains usable.
func (t *Tree) Insert(id int64, pdf PDF) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.settle(t.inner.Insert(core.Object{ID: id, PDF: pdf}))
}

// Delete removes an object by ID (writer lock), on a new tree and on one
// reopened with OpenTree alike. An ID that is not live returns ErrNotFound
// and mutates nothing. It reads the object's record for the region to
// descend on; a record holding another ID is corruption (ErrBadPage). The
// delete publishes as its own epoch (see Insert); snapshots pinned before
// it still see the object.
func (t *Tree) Delete(id int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.settle(t.inner.Delete(id))
}

// holds reports whether id is live in the working tree (writer lock).
func (t *Tree) holds(id int64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.inner.Holds(id)
}

// Search answers a probabilistic range query — the objects appearing in
// rect with probability ≥ prob (prob in (0, 1]) — against a snapshot of
// the latest committed epoch, with no lock held (see Tree). A refined
// object's Prob is its exact appearance probability (Equation 2), so an
// answer depends on the query and the epoch alone.
//
// The traversal checks ctx before every page fetch and refinement
// integration, so cancellation and deadlines take effect within roughly
// one page read; on early exit the results and stats gathered so far are
// returned alongside ctx.Err().
func (t *Tree) Search(ctx context.Context, rect Rect, prob float64, opts ...QueryOption) ([]Result, Stats, error) {
	snap := t.inner.Snapshot()
	defer snap.Close()
	return snap.RangeQuery(ctx, core.Query{Rect: rect, Prob: prob}, resolveOptions(opts))
}

// Flush drains whatever retired epochs' pages the current snapshot pins
// allow (writer lock). Every committed page is already in the store: a
// mutation outside a WriteBatch, and each WriteBatch, writes its pages when
// it commits.
func (t *Tree) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.inner.Reclaim()
}

// Epoch returns the last committed epoch number (each completed mutation
// outside a WriteBatch, and each WriteBatch, is one epoch).
func (t *Tree) Epoch() uint64 { return t.inner.Epoch() }

// GCInfo is the epoch collector's health report: committed epoch, live
// snapshot pins, pending epochs and pages, and the lifetime reclaim
// counter — the observability surface for leak assertions in tests and
// tooling.
type GCInfo = core.GCInfo

// GCInfo reports the epoch collector's health.
func (t *Tree) GCInfo() GCInfo { return t.inner.GCInfo() }

// Len returns the object count of the latest committed epoch (lock-free;
// an in-progress mutation or WriteBatch is not yet visible).
func (t *Tree) Len() int { return t.inner.CommittedLen() }

// Height returns the tree height in levels (writer lock: it reads the
// working tree).
func (t *Tree) Height() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.inner.Height()
}

// SizeBytes reports the total storage footprint (index + data pages).
func (t *Tree) SizeBytes() int64 { return t.inner.SizeBytes() }

// CacheStats reports the writer's cumulative node reads (atomic; callable
// concurrently with searches). A hit is a node page the writer read back
// from the open batch's dirty pages, a miss a node page the writer read
// from the store; a query or a snapshot check reads committed pages and
// counts in neither. NodeCacheStats reports the read cache.
func (t *Tree) CacheStats() (hits, misses int64) { return t.inner.CacheStats() }

// NodeCacheStats reports the decoded-node cache's cumulative hit/miss
// counters (both zero when Config.NodeCacheEntries is negative). Safe to
// call concurrently with queries and the writer.
func (t *Tree) NodeCacheStats() (hits, misses int64) { return t.inner.NodeCacheStats() }

// CheckInvariants validates the latest committed epoch's structure on a
// pinned snapshot — safe to run concurrently with a writer.
func (t *Tree) CheckInvariants() error {
	snap := t.inner.Snapshot()
	defer snap.Close()
	return snap.CheckInvariants()
}

// Shapes returns the size of the committed shape table (README "Leaf layout").
func (t *Tree) Shapes() int {
	snap := t.inner.Snapshot()
	defer snap.Close()
	return snap.Shapes()
}

// CheckRecords is CheckInvariants plus a read of the record of every object
// whose leaf entry names a shape: the pdf in it must have that shape.
func (t *Tree) CheckRecords() error {
	snap := t.inner.Snapshot()
	defer snap.Close()
	return snap.CheckRecords()
}

// Close drains the last retired pages and, for file-backed trees, closes
// the file (writer lock). It commits nothing: every mutation has already
// committed or rolled back by the time Close runs, so a tree that was only
// queried leaves its file byte-identical. Close is also the last chance to
// surface a reclaim failure stashed by an earlier commit (such a failure
// leaked pages; it never corrupted data).
//
// Close is idempotent, and remains safe after a failed commit or after
// Discard: repeated calls return nil without touching the (already
// released) storage again.
func (t *Tree) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	err := t.inner.Reclaim()
	if t.file != nil {
		if cerr := t.file.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Discard releases a file-backed tree WITHOUT committing, flushing or
// reclaiming — the crash-simulation exit (and the cleanup path for a
// handle whose storage already failed): the file keeps exactly the pages
// written when the last operation stopped, as if the process died there.
// OpenTree then recovers the last committed epoch. In-memory trees just
// drop their state. Idempotent and safe after Close (and vice versa).
func (t *Tree) Discard() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	if t.file == nil {
		return nil
	}
	return t.file.Close()
}
