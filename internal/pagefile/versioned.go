package pagefile

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// VersionedStore layers copy-on-write epoch semantics over a Store — the
// storage half of snapshot isolation. The discipline it enforces:
//
//   - Pages allocated since the last commit ("fresh") are private to the
//     writer and may be written in place; freeing one reclaims it
//     immediately.
//   - Pages that were live at the last commit are immutable: writing one is
//     a COW violation (the tree must relocate the node to a fresh page),
//     and freeing one is deferred — the page stays readable until every
//     snapshot pinned at an epoch that could reference it has been
//     released.
//   - Commit seals the open batch: the batch's deferred frees become
//     garbage of the new epoch, the fresh set resets, and an opaque
//     committed-state handle (the tree's root/size record) is published
//     atomically with the epoch bump. Pin returns that handle together
//     with a release closure; a pinned epoch's pages are never recycled.
//
// Pages that are legitimately mutated in place — the data file's current
// append page (appends never move a committed record) and the metadata
// page — are exempted via MarkInPlace, and the data file hands the
// exemption back (UnmarkInPlace) when it moves on to a fresh page, so the
// set holds two pages however large the file grows; everything else
// writing a committed page fails loudly with ErrCOWViolation, which is the
// safety net that turns a missed relocation into a test failure instead of
// silent snapshot corruption.
//
// Reclamation normally runs on the writer's side (Commit, Reclaim, or the
// owner's Flush/Close) so a reader releasing the last pin never pays the
// physical free I/O; until the next writer-side call the garbage is merely
// retained, never lost. With the background reclaimer started
// (StartReclaimer), reclamation leaves the commit path entirely: Commit
// only queues the batch's garbage, and a dedicated goroutine drains
// quiesced epochs under a per-tick page budget.
type VersionedStore struct {
	inner Store
	pool  *BufferPool  // optional: invalidated on physical free
	inval func(PageID) // optional extra invalidation hook (decoded-node cache)

	mu      sync.Mutex
	epoch   uint64
	state   any
	pins    map[uint64]int
	fresh   map[PageID]bool
	inPlace map[PageID]bool
	batch   garbage   // open (uncommitted) batch
	pending []garbage // committed garbage awaiting pin drain

	reclaimErr error // first deferred-reclaim failure, surfaced at next Commit/Reclaim

	// reclaimMu serializes physical drains: writer-side Reclaim/Commit and
	// the background reclaimer must not interleave their frees (a partially
	// drained batch is held outside pending while its pages are freed).
	reclaimMu sync.Mutex

	bgRunning bool // background reclaimer lifecycle, under mu
	bgStop    chan struct{}
	bgDone    chan struct{}

	reclaimedPages atomic.Int64

	// drainingPages counts the pages a reclaim has taken off pending but not
	// yet freed. It rises and is handed back under mu (so a reader holding mu
	// finds every unreclaimed page in pending or here, never in neither) and
	// falls as each page is freed.
	drainingPages atomic.Int64
}

// garbage is one commit's deferred work: the pages dead as of that epoch.
type garbage struct {
	epoch uint64
	pages []PageID
}

func (g *garbage) empty() bool { return len(g.pages) == 0 }

// ErrCOWViolation reports an in-place write to a committed page that was
// not exempted with MarkInPlace — a broken copy-on-write path.
var ErrCOWViolation = errors.New("pagefile: in-place write to a committed page (COW violation)")

// NewVersionedStore wraps inner starting at the given committed epoch
// (0 for a fresh store; a reopened index passes its persisted epoch).
func NewVersionedStore(inner Store, epoch uint64) *VersionedStore {
	return &VersionedStore{
		inner:   inner,
		epoch:   epoch,
		pins:    make(map[uint64]int),
		fresh:   make(map[PageID]bool),
		inPlace: make(map[PageID]bool),
	}
}

// AttachPool registers the buffer pool whose frames must be dropped when a
// page is physically freed (reclaimed pages may be recycled by Alloc, and
// a stale frame would leak the previous epoch's bytes into the new use).
func (v *VersionedStore) AttachPool(pool *BufferPool) { v.pool = pool }

// AttachInvalidator registers an extra per-page invalidation hook, called
// at exactly the points the buffer pool is invalidated: immediately before
// a page is physically freed (and therefore before its id can be
// recycled). The tree uses it to drop decoded-node cache entries. Attach
// before any concurrent use; fn must be safe for concurrent calls.
func (v *VersionedStore) AttachInvalidator(fn func(PageID)) { v.inval = fn }

// invalidate drops the page from the attached pool and invalidator hook —
// every physical-free site funnels through here.
func (v *VersionedStore) invalidate(id PageID) {
	if v.pool != nil {
		v.pool.Invalidate(id)
	}
	if v.inval != nil {
		v.inval(id)
	}
}

// CommittedInfo reports whether id is a committed page — immutable in
// place under the COW discipline, and therefore safe to share a decoded
// form of — together with the current committed epoch, in one lock
// acquisition (the decoded-node cache's insert-path check).
func (v *VersionedStore) CommittedInfo(id PageID) (committed bool, epoch uint64) {
	v.mu.Lock()
	committed = !v.fresh[id]
	epoch = v.epoch
	v.mu.Unlock()
	return committed, epoch
}

// Alloc allocates a page and marks it fresh: writable in place until the
// next Commit seals it.
func (v *VersionedStore) Alloc() (PageID, error) {
	id, err := v.inner.Alloc()
	if err != nil {
		return id, err
	}
	v.mu.Lock()
	v.fresh[id] = true
	v.mu.Unlock()
	return id, nil
}

// Read passes through without taking the store mutex — the read path is
// the hot path and needs no versioning state.
func (v *VersionedStore) Read(id PageID, buf []byte) error { return v.inner.Read(id, buf) }

// Write enforces the COW discipline, then delegates. The check runs under
// the mutex; the (possibly slow) inner write does not.
func (v *VersionedStore) Write(id PageID, buf []byte) error {
	v.mu.Lock()
	ok := v.fresh[id] || v.inPlace[id]
	v.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: page %d at epoch %d", ErrCOWViolation, id, v.Epoch())
	}
	return v.inner.Write(id, buf)
}

// Free releases a page: immediately when it is fresh (never committed, no
// snapshot can reference it), otherwise deferred into the open batch and
// physically reclaimed only after the freeing commit's older pins drain.
func (v *VersionedStore) Free(id PageID) error {
	v.mu.Lock()
	if v.fresh[id] {
		delete(v.fresh, id)
		// Drop any in-place exemption with the page: a recycled id must
		// re-earn it, or a future tree node on this id would dodge the COW
		// check.
		delete(v.inPlace, id)
		v.mu.Unlock()
		v.invalidate(id)
		return v.inner.Free(id)
	}
	v.batch.pages = append(v.batch.pages, id)
	v.mu.Unlock()
	return nil
}

// MarkInPlace exempts a page from the COW write check: the data file's
// current append page (whose committed records are never moved by an
// append) and the metadata page.
func (v *VersionedStore) MarkInPlace(id PageID) {
	v.mu.Lock()
	v.inPlace[id] = true
	v.mu.Unlock()
}

// UnmarkInPlace withdraws the exemption: the data file calls it on the page
// it stops appending to, so a sealed data page is as immutable as a
// committed node.
func (v *VersionedStore) UnmarkInPlace(id PageID) {
	v.mu.Lock()
	delete(v.inPlace, id)
	v.mu.Unlock()
}

// Writable reports whether a page may be written in place (fresh this
// batch). The tree's writeNode relocates the node when this is false.
func (v *VersionedStore) Writable(id PageID) bool {
	v.mu.Lock()
	ok := v.fresh[id]
	v.mu.Unlock()
	return ok
}

// Epoch returns the last committed epoch.
func (v *VersionedStore) Epoch() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.epoch
}

// SeedState installs the committed-state handle recovered from storage
// without bumping the epoch — the reopen path, where the state on disk IS
// the committed epoch.
func (v *VersionedStore) SeedState(state any) {
	v.mu.Lock()
	v.state = state
	v.mu.Unlock()
}

// State returns the committed-state handle published by the last Commit
// (nil before the first).
func (v *VersionedStore) State() any {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.state
}

// Commit seals the open batch and publishes state as the new epoch's
// committed state, atomically with the epoch bump: a Pin issued after
// Commit returns sees the new state, one issued before keeps the old
// epoch's pages alive. The caller must have made the batch durable first
// (data flush, buffer-pool flush, metadata write).
//
// Without the background reclaimer, Commit also drains whatever garbage
// the current pins allow; with it running, Commit only queues the batch —
// reclamation happens on the reclaimer's ticks, off the commit path. A
// drain failure never fails the commit — the epoch is already published,
// so reporting it here would make a durable mutation look failed (and
// trigger a bogus rollback). Drain errors are stashed and surfaced by the
// next Reclaim (or the owner's Flush); a page whose free failed is leaked
// until the store closes, never corrupted.
func (v *VersionedStore) Commit(state any) error {
	v.mu.Lock()
	v.epoch++
	v.state = state
	if !v.batch.empty() {
		v.batch.epoch = v.epoch
		v.pending = append(v.pending, v.batch)
	}
	v.batch = garbage{}
	for id := range v.fresh {
		delete(v.fresh, id)
	}
	bg := v.bgRunning
	v.mu.Unlock()
	if !bg {
		v.reclaimSome(0) // errors stashed in reclaimErr
	}
	return nil
}

// Rollback abandons the open batch after a failed mutation: fresh pages
// are freed immediately (no snapshot can reference them) and the batch's
// deferred frees are dropped — those pages are still live in the last
// committed epoch. The caller restores its in-memory state from the
// committed-state handle.
func (v *VersionedStore) Rollback() error {
	v.mu.Lock()
	freshPages := make([]PageID, 0, len(v.fresh))
	for id := range v.fresh {
		freshPages = append(freshPages, id)
		delete(v.fresh, id)
		delete(v.inPlace, id) // see Free: recycled ids must re-earn exemption
	}
	v.batch = garbage{}
	v.mu.Unlock()
	var first error
	for _, id := range freshPages {
		v.invalidate(id)
		if err := v.inner.Free(id); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Pin takes a snapshot reference on the current epoch and returns the
// committed-state handle, the pinned epoch, and a release closure. While
// the pin is held, no page live at that epoch is recycled. Release is cheap
// and never performs I/O; the retained garbage drains at the next
// writer-side Commit / Reclaim / Flush.
func (v *VersionedStore) Pin() (state any, epoch uint64, release func()) {
	v.mu.Lock()
	e := v.epoch
	v.pins[e]++
	st := v.state
	v.mu.Unlock()
	var once sync.Once
	return st, e, func() {
		once.Do(func() {
			v.mu.Lock()
			if v.pins[e]--; v.pins[e] <= 0 {
				delete(v.pins, e)
			}
			v.mu.Unlock()
		})
	}
}

// Reclaim drains every garbage batch the current pins allow: a batch
// freed at commit E is reclaimable once no snapshot pinned at an epoch
// < E remains. Unbudgeted; safe to call concurrently with the background
// reclaimer (reclaimMu serializes the physical work). Returns and clears
// the first stashed reclaim error, its own included.
func (v *VersionedStore) Reclaim() error {
	v.reclaimSome(0)
	v.mu.Lock()
	err := v.reclaimErr
	v.reclaimErr = nil
	v.mu.Unlock()
	return err
}

// DefaultReclaimBudget is the background reclaimer's per-tick page budget
// when the caller passes one <= 0: one budget unit is one page free.
const DefaultReclaimBudget = 128

// StartReclaimer starts the background reclaimer: a goroutine that every
// interval drains quiesced epochs, at most pageBudget page frees per
// tick, so a burst of commits never stalls the writer on reclamation I/O
// and garbage drains even while the writer idles. While it runs, Commit no
// longer drains inline. Pinned snapshots stay safe: the reclaimer only
// collects batches no live pin predates. No-op when already running or
// interval <= 0; pageBudget <= 0 means DefaultReclaimBudget.
func (v *VersionedStore) StartReclaimer(interval time.Duration, pageBudget int) {
	if interval <= 0 {
		return
	}
	if pageBudget <= 0 {
		pageBudget = DefaultReclaimBudget
	}
	v.mu.Lock()
	if v.bgRunning {
		v.mu.Unlock()
		return
	}
	v.bgRunning = true
	stop := make(chan struct{})
	done := make(chan struct{})
	v.bgStop, v.bgDone = stop, done
	v.mu.Unlock()
	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				v.reclaimSome(pageBudget) // errors stashed in reclaimErr
			}
		}
	}()
}

// StopReclaimer stops the background reclaimer and waits out any in-flight
// tick; whatever it had not yet drained is picked up by the next
// writer-side Commit or Reclaim. Idempotent.
func (v *VersionedStore) StopReclaimer() {
	v.mu.Lock()
	if !v.bgRunning {
		v.mu.Unlock()
		return
	}
	v.bgRunning = false
	stop, done := v.bgStop, v.bgDone
	v.bgStop, v.bgDone = nil, nil
	v.mu.Unlock()
	close(stop)
	<-done
}

// ReclaimerRunning reports whether the background reclaimer is active.
func (v *VersionedStore) ReclaimerRunning() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.bgRunning
}

// collectDrainableLocked removes and returns the pending batches whose
// epochs no live pin predates. Caller holds v.mu.
func (v *VersionedStore) collectDrainableLocked() []garbage {
	minPinned := uint64(math.MaxUint64)
	for e := range v.pins {
		if e < minPinned {
			minPinned = e
		}
	}
	var drain []garbage
	kept := v.pending[:0]
	for _, g := range v.pending {
		if g.epoch <= minPinned {
			drain = append(drain, g)
		} else {
			kept = append(kept, g)
		}
	}
	v.pending = kept
	return drain
}

// reclaimSome collects the drainable batches and frees up to budget pages
// (0 = unlimited) outside v.mu, invalidating any cached frame before the
// slot can be recycled. When the budget runs out, the partially drained
// batch and everything after it go back to the FRONT of pending,
// preserving epoch order for the next tick. reclaimMu serializes the
// physical work against concurrent drains; failures are stashed in
// reclaimErr and the work is counted done regardless (an unfreed page is
// leaked, never corrupted).
func (v *VersionedStore) reclaimSome(budget int) int {
	v.reclaimMu.Lock()
	defer v.reclaimMu.Unlock()
	v.mu.Lock()
	drain := v.collectDrainableLocked()
	for i := range drain {
		v.drainingPages.Add(int64(len(drain[i].pages)))
	}
	v.mu.Unlock()
	var first error
	done := 0
	for i := range drain {
		g := &drain[i]
		for len(g.pages) > 0 {
			if budget > 0 && done >= budget {
				v.requeueFront(drain[i:], first)
				return done
			}
			id := g.pages[0]
			g.pages = g.pages[1:]
			v.invalidate(id)
			v.mu.Lock()
			delete(v.inPlace, id)
			v.mu.Unlock()
			if err := v.inner.Free(id); err != nil && first == nil {
				first = err
			}
			v.reclaimedPages.Add(1)
			v.drainingPages.Add(-1)
			done++
		}
	}
	v.stashReclaimErr(first)
	return done
}

// requeueFront pushes the batches a budget cutoff left undrained back at
// the front of pending (epoch order preserved) and stashes err.
func (v *VersionedStore) requeueFront(rest []garbage, err error) {
	kept := make([]garbage, 0, len(rest))
	for i := range rest {
		if !rest[i].empty() {
			kept = append(kept, rest[i])
		}
	}
	v.mu.Lock()
	for i := range kept {
		v.drainingPages.Add(-int64(len(kept[i].pages)))
	}
	if len(kept) > 0 {
		v.pending = append(kept, v.pending...)
	}
	if err != nil && v.reclaimErr == nil {
		v.reclaimErr = err
	}
	v.mu.Unlock()
}

func (v *VersionedStore) stashReclaimErr(err error) {
	if err == nil {
		return
	}
	v.mu.Lock()
	if v.reclaimErr == nil {
		v.reclaimErr = err
	}
	v.mu.Unlock()
}

// GCStats reports the collector's state: the committed epoch, live pins,
// and pages awaiting reclamation (uncommitted batch and a drain in progress
// included) — the page-leak assertion surface for tests.
func (v *VersionedStore) GCStats() (epoch uint64, pins int, pendingPages int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, n := range v.pins {
		pins += n
	}
	for _, g := range v.pending {
		pendingPages += len(g.pages)
	}
	pendingPages += len(v.batch.pages) + int(v.drainingPages.Load())
	return v.epoch, pins, pendingPages
}

// GCInfo is the collector's full health report: epoch and pin state,
// garbage awaiting reclamation (uncommitted batch and whatever a running
// drain has collected but not yet freed included), the lifetime reclaim
// counter, and whether the background reclaimer is running.
type GCInfo struct {
	Epoch            uint64 `json:"epoch"`
	Pins             int    `json:"pins"`
	PendingEpochs    int    `json:"pending_epochs"`
	PendingPages     int    `json:"pending_pages"`
	ReclaimedPages   int64  `json:"reclaimed_pages"`
	ReclaimerRunning bool   `json:"reclaimer_running"`
}

// Add merges o into g — the shard-aggregation rule: epochs take the max,
// counters sum, and the running flag ORs.
func (g *GCInfo) Add(o GCInfo) {
	if o.Epoch > g.Epoch {
		g.Epoch = o.Epoch
	}
	g.Pins += o.Pins
	g.PendingEpochs += o.PendingEpochs
	g.PendingPages += o.PendingPages
	g.ReclaimedPages += o.ReclaimedPages
	g.ReclaimerRunning = g.ReclaimerRunning || o.ReclaimerRunning
}

// GCInfo reports the collector's full state; see GCStats for the compact
// 3-tuple form.
func (v *VersionedStore) GCInfo() GCInfo {
	v.mu.Lock()
	defer v.mu.Unlock()
	info := GCInfo{
		Epoch:            v.epoch,
		PendingEpochs:    len(v.pending),
		ReclaimedPages:   v.reclaimedPages.Load(),
		ReclaimerRunning: v.bgRunning,
	}
	for _, n := range v.pins {
		info.Pins += n
	}
	for i := range v.pending {
		info.PendingPages += len(v.pending[i].pages)
	}
	info.PendingPages += len(v.batch.pages) + int(v.drainingPages.Load())
	return info
}

func (v *VersionedStore) NumPages() int { return v.inner.NumPages() }
func (v *VersionedStore) Stats() *Stats { return v.inner.Stats() }

// VerifyPage forwards the scrubber's integrity probe down the stack; no
// versioning state applies to a read-only trailer check.
func (v *VersionedStore) VerifyPage(id PageID) error {
	if pv, ok := v.inner.(PageVerifier); ok {
		return pv.VerifyPage(id)
	}
	return nil
}
