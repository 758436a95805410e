package core

import (
	"errors"
	"maps"
	"math"
	"slices"
	"sync"

	"repro/internal/pagefile"
)

// The copy-on-write epoch — the storage half of snapshot isolation. The
// discipline:
//
//   - Pages allocated since the last commit (allocPage) are fresh: private
//     to the writer, written in place, and freed at once.
//   - Pages live at the last commit are immutable: writeNode relocates a
//     node whose page is not fresh, Commit refuses to write a dirty page
//     that is not fresh (ErrCOWViolation, the net that turns a missed
//     relocation into a failure instead of silent snapshot corruption),
//     and freeing one is deferred until every snapshot pinned at an epoch
//     that could reach it has been released. The one exception is the
//     committed append page (datapage.go), whose committed records an
//     append never moves: Commit writes it in place with the batch's
//     pages.
//   - Commit seals the open batch: its retired pages become garbage of the
//     new epoch, the fresh set empties, and the committed treeState is
//     published atomically with the epoch bump. A snapshot pins an epoch,
//     and a pinned epoch's pages are never recycled.
//
// No page is written outside writeDirty and writeMeta. Two are written in
// place: the committed append page, and the metadata page, whose rewrite
// is how an epoch becomes the committed one. Neither is lent to a reader
// nor cached (shareable).
//
// Reclamation runs on the writer's side only (Commit and Reclaim), so a
// reader releasing the last pin never pays the physical free; until the
// next writer-side call the garbage is merely retained, never lost.
type epochs struct {
	mu      sync.Mutex
	epoch   uint64
	state   *treeState // published by the last commit
	pins    map[uint64]int
	fresh   map[pagefile.PageID]bool
	batch   []pagefile.PageID // retired by the open batch
	pending []retired         // retired by committed epochs, awaiting their pins

	// draining counts the pages a reclaim has taken off pending but not yet
	// freed, so GCInfo finds every unreclaimed page in pending, batch or
	// here.
	draining   int
	reclaimed  int64
	reclaimErr error // first failed free, surfaced by the next Reclaim
}

// retired is one commit's garbage: the pages dead as of that epoch.
type retired struct {
	epoch uint64
	pages []pagefile.PageID
}

// ErrCOWViolation reports a write to a committed page — a broken
// copy-on-write path.
var ErrCOWViolation = errors.New("core: in-place write to a committed page (COW violation)")

// allocPage allocates a page — a node page or a data page — and marks it
// fresh: writable in place until Commit seals it.
func (t *Tree) allocPage() (pagefile.PageID, error) {
	id, err := t.store.Alloc()
	if err != nil {
		return id, err
	}
	t.ep.mu.Lock()
	t.ep.fresh[id] = true
	t.ep.mu.Unlock()
	return id, nil
}

// isFresh reports whether page id was allocated by the open batch.
func (t *Tree) isFresh(id pagefile.PageID) bool {
	t.ep.mu.Lock()
	defer t.ep.mu.Unlock()
	return t.ep.fresh[id]
}

// shareable reports whether a lock-free reader may view page id's bytes in
// place or cache its decoded node: a page neither fresh (the open batch
// writes it) nor one written in place, the metadata page or the committed
// append page — the working append page is that one or a fresh one.
func (t *Tree) shareable(id pagefile.PageID) bool {
	t.ep.mu.Lock()
	defer t.ep.mu.Unlock()
	return !t.ep.fresh[id] && id != t.meta && id != t.ep.state.dataPage
}

// freePage releases a page: at once when it is fresh (no snapshot can
// reach it), else at the first reclaim after the commit that retires it
// and every older pin. Its dirty bytes are dropped unwritten: the batch
// may allocate the page again, even as a data page.
func (t *Tree) freePage(id pagefile.PageID) error {
	delete(t.dirty, id)
	t.ep.mu.Lock()
	if !t.ep.fresh[id] {
		t.ep.batch = append(t.ep.batch, id)
		t.ep.mu.Unlock()
		return nil
	}
	delete(t.ep.fresh, id)
	t.ep.mu.Unlock()
	return t.dropPage(id)
}

// dropPage frees page id in the store, dropping its cached node first, so
// the id cannot be recycled under a stale decoded node.
func (t *Tree) dropPage(id pagefile.PageID) error {
	t.ncache.invalidate(id)
	return t.store.Free(id)
}

// publish makes st the committed state of a new epoch, seals the open
// batch's retired pages as that epoch's garbage, and drains whatever the
// pins allow. A failed free does not fail the commit — the epoch is
// already published — but is surfaced by the next Reclaim; the page is
// leaked until the store closes, never corrupted.
func (t *Tree) publish(st *treeState) {
	e := &t.ep
	e.mu.Lock()
	e.epoch++
	e.state = st
	if len(e.batch) > 0 {
		e.pending = append(e.pending, retired{epoch: e.epoch, pages: e.batch})
		e.batch = nil
	}
	clear(e.fresh)
	e.mu.Unlock()
	t.reclaim()
}

// abandon drops the open batch: fresh pages are freed at once, retired
// ones kept (they are live in the committed epoch).
func (t *Tree) abandon() error {
	e := &t.ep
	e.mu.Lock()
	fresh := slices.Collect(maps.Keys(e.fresh))
	clear(e.fresh)
	e.batch = nil
	e.mu.Unlock()
	var first error
	for _, id := range fresh {
		if err := t.dropPage(id); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// pin takes a reference on the committed epoch and returns its state; no
// page live at that epoch is recycled until unpin.
func (t *Tree) pin() (*treeState, uint64) {
	t.ep.mu.Lock()
	defer t.ep.mu.Unlock()
	t.ep.pins[t.ep.epoch]++
	return t.ep.state, t.ep.epoch
}

// unpin releases one pin on epoch. It never frees a page itself: the
// garbage it lets go drains at the writer's next Commit or Reclaim.
func (t *Tree) unpin(epoch uint64) {
	t.ep.mu.Lock()
	if t.ep.pins[epoch]--; t.ep.pins[epoch] <= 0 {
		delete(t.ep.pins, epoch)
	}
	t.ep.mu.Unlock()
}

// Reclaim frees whatever retired pages the current snapshot pins allow: a
// batch retired at commit E once no snapshot pinned before E remains.
// Writer-side, like Commit. It returns and clears the first failed free
// since the last Reclaim, its own included.
func (t *Tree) Reclaim() error {
	t.reclaim()
	t.ep.mu.Lock()
	defer t.ep.mu.Unlock()
	err := t.ep.reclaimErr
	t.ep.reclaimErr = nil
	return err
}

// reclaim takes the drainable batches off pending and frees their pages
// outside the mutex. A failed free is counted done (the page is leaked,
// never corrupted) and stashed for Reclaim.
func (t *Tree) reclaim() {
	e := &t.ep
	e.mu.Lock()
	oldest := uint64(math.MaxUint64)
	for ep := range e.pins {
		oldest = min(oldest, ep)
	}
	var drain []pagefile.PageID
	kept := e.pending[:0]
	for _, g := range e.pending {
		if g.epoch <= oldest {
			drain = append(drain, g.pages...)
		} else {
			kept = append(kept, g)
		}
	}
	e.pending = kept
	e.draining += len(drain)
	e.mu.Unlock()
	for _, id := range drain {
		err := t.dropPage(id)
		e.mu.Lock()
		if err != nil && e.reclaimErr == nil {
			e.reclaimErr = err
		}
		e.reclaimed++
		e.draining--
		e.mu.Unlock()
	}
}

// committed is the last committed state (New and Open both publish one).
func (t *Tree) committed() *treeState {
	t.ep.mu.Lock()
	defer t.ep.mu.Unlock()
	return t.ep.state
}

// Epoch returns the last committed epoch number.
func (t *Tree) Epoch() uint64 {
	t.ep.mu.Lock()
	defer t.ep.mu.Unlock()
	return t.ep.epoch
}

// GCInfo is the epoch collector's health report: epoch and pin state,
// pages awaiting reclamation (the open batch's retired pages and those a
// running drain has taken but not yet freed included), and the lifetime
// reclaim counter.
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
	g.Epoch = max(g.Epoch, o.Epoch)
	g.Pins += o.Pins
	g.PendingEpochs += o.PendingEpochs
	g.PendingPages += o.PendingPages
	g.ReclaimedPages += o.ReclaimedPages
}

// GCInfo reports the epoch collector's state — the page-leak assertion
// surface for tests.
func (t *Tree) GCInfo() GCInfo {
	e := &t.ep
	e.mu.Lock()
	defer e.mu.Unlock()
	info := GCInfo{
		Epoch:          e.epoch,
		PendingEpochs:  len(e.pending),
		PendingPages:   len(e.batch) + e.draining,
		ReclaimedPages: e.reclaimed,
	}
	for _, n := range e.pins {
		info.Pins += n
	}
	for _, g := range e.pending {
		info.PendingPages += len(g.pages)
	}
	return info
}
