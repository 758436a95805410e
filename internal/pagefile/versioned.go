package pagefile

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
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
// Reclamation runs on the writer's side only (Commit and Reclaim, which the
// owner's Flush/Close call), so a reader releasing the last pin never pays
// the physical free I/O; until the next writer-side call the garbage is
// merely retained, never lost. The writer is one goroutine at a time, so
// two drains never overlap.
type VersionedStore struct {
	inner Store
	inval func(PageID) // optional invalidation hook (decoded-node cache)

	mu      sync.Mutex
	epoch   uint64
	state   any
	pins    map[uint64]int
	fresh   map[PageID]bool
	inPlace map[PageID]bool
	batch   garbage   // open (uncommitted) batch
	pending []garbage // committed garbage awaiting pin drain

	reclaimErr error // first deferred-reclaim failure, surfaced at next Commit/Reclaim

	reclaimedPages atomic.Int64

	// drainingPages counts the pages a reclaim has taken off pending but not
	// yet freed. It rises under mu (so a reader holding mu finds every
	// unreclaimed page in pending or here, never in neither) and falls as
	// each page is freed.
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

// AttachInvalidator registers a per-page invalidation hook, called
// immediately before a page is physically freed (and therefore before its
// id can be recycled). The tree uses it to drop decoded-node cache
// entries. Attach before any concurrent use; fn must be safe for
// concurrent calls.
func (v *VersionedStore) AttachInvalidator(fn func(PageID)) { v.inval = fn }

// invalidate calls the invalidation hook — every physical-free site
// funnels through here.
func (v *VersionedStore) invalidate(id PageID) {
	if v.inval != nil {
		v.inval(id)
	}
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

// pageViewer is a store that can lend a page's bytes instead of copying
// them (MemStore.View).
type pageViewer interface {
	View(id PageID) ([]byte, error)
}

// View lends a committed page's bytes for reading where the inner store
// lends its pages (MemStore.View), counting one read, and reports ok. It
// lends no page Write would accept — one fresh this batch, or marked in
// place, as the data file's append page is — nor any page where the inner
// store does not lend: then View reads nothing, ok is false, and the
// caller reads a copy. Lent bytes stay valid while the caller's pin holds:
// a committed page is never written, and is freed — and its id reused —
// only once no pinned epoch can reach it.
func (v *VersionedStore) View(id PageID) (page []byte, ok bool, err error) {
	pv, ok := v.inner.(pageViewer)
	if !ok {
		return nil, false, nil
	}
	v.mu.Lock()
	writable := v.fresh[id] || v.inPlace[id]
	v.mu.Unlock()
	if writable {
		return nil, false, nil
	}
	page, err = pv.View(id)
	return page, err == nil, err
}

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
// batch). The tree's writeNode relocates the node when this is false; a
// page that is not writable is committed — immutable in place under the
// COW discipline, so a decoded form of it may be shared.
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
// (data flush, node page writes, metadata write).
//
// Commit also drains whatever garbage the current pins allow. A drain
// failure never fails the commit — the epoch is already published,
// so reporting it here would make a durable mutation look failed (and
// trigger a bogus rollback). Drain errors are stashed and surfaced by the
// next Reclaim; a page whose free failed is leaked
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
	v.mu.Unlock()
	v.reclaimSome() // errors stashed in reclaimErr
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
// writer-side Commit or Reclaim.
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
// < E remains. Writer-side, like Commit. Returns and clears the first
// stashed reclaim error, its own included.
func (v *VersionedStore) Reclaim() error {
	v.reclaimSome()
	v.mu.Lock()
	err := v.reclaimErr
	v.reclaimErr = nil
	v.mu.Unlock()
	return err
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

// reclaimSome collects the drainable batches and frees their pages outside
// v.mu, invalidating any cached node before the slot can be recycled.
// Failures are stashed in reclaimErr and the work is counted done
// regardless (an unfreed page is leaked, never corrupted).
func (v *VersionedStore) reclaimSome() {
	v.mu.Lock()
	drain := v.collectDrainableLocked()
	for i := range drain {
		v.drainingPages.Add(int64(len(drain[i].pages)))
	}
	v.mu.Unlock()
	var first error
	for _, g := range drain {
		for _, id := range g.pages {
			v.invalidate(id)
			v.mu.Lock()
			delete(v.inPlace, id)
			v.mu.Unlock()
			if err := v.inner.Free(id); err != nil && first == nil {
				first = err
			}
			v.reclaimedPages.Add(1)
			v.drainingPages.Add(-1)
		}
	}
	if first != nil {
		v.mu.Lock()
		if v.reclaimErr == nil {
			v.reclaimErr = first
		}
		v.mu.Unlock()
	}
}

// GCInfo is the collector's health report: epoch and pin state, garbage
// awaiting reclamation (uncommitted batch and whatever a running drain has
// collected but not yet freed included), and the lifetime reclaim counter.
type GCInfo struct {
	Epoch          uint64 `json:"epoch"`
	Pins           int    `json:"pins"`
	PendingEpochs  int    `json:"pending_epochs"`
	PendingPages   int    `json:"pending_pages"`
	ReclaimedPages int64  `json:"reclaimed_pages"`
}

// Add merges o into g — the shard-aggregation rule: epochs take the max,
// counters sum.
func (g *GCInfo) Add(o GCInfo) {
	if o.Epoch > g.Epoch {
		g.Epoch = o.Epoch
	}
	g.Pins += o.Pins
	g.PendingEpochs += o.PendingEpochs
	g.PendingPages += o.PendingPages
	g.ReclaimedPages += o.ReclaimedPages
}

// GCInfo reports the collector's state — the page-leak assertion surface
// for tests.
func (v *VersionedStore) GCInfo() GCInfo {
	v.mu.Lock()
	defer v.mu.Unlock()
	info := GCInfo{
		Epoch:          v.epoch,
		PendingEpochs:  len(v.pending),
		ReclaimedPages: v.reclaimedPages.Load(),
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
