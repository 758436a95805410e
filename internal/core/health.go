package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/pagefile"
)

// Corruption containment: a page whose read fails the checksum (or whose
// trailer names another page, or whose decoded header is structurally
// impossible) is QUARANTINED — recorded in a tree-level registry and
// invalidated out of the write buffer and the decoded-node cache, so its
// bytes can never be served from either as if they were good, and every
// later read of the page fast-fails with the recorded cause instead of
// re-reading garbage. Quarantine never repairs anything; it turns silent
// corruption into a typed, reportable error (pagefile.ErrChecksum /
// pagefile.ErrBadPage) and keeps it contained to queries whose traversal
// actually needs the damaged page.

// QuarantinedPage describes one page in the quarantine registry.
type QuarantinedPage struct {
	Page pagefile.PageID `json:"page"`
	// Epoch is the committed epoch when the damage was first observed.
	Epoch uint64 `json:"epoch"`
	// Cause is the first error that condemned the page (its Error() text).
	Cause string `json:"cause"`
}

// HealthInfo is the tree's storage-health report: the quarantine registry.
// Like QueryStats, aggregation goes through Add — a new HealthInfo field
// only needs its merge rule stated there.
type HealthInfo struct {
	// Quarantined lists the condemned pages, ordered by PageID.
	Quarantined []QuarantinedPage `json:"quarantined,omitempty"`
	// QuarantinedPages is len(Quarantined) — kept explicit so merged and
	// JSON-round-tripped reports stay self-describing.
	QuarantinedPages int `json:"quarantined_pages"`
}

// Add accumulates o into h — the merge point for sharded indexes: counters
// sum and quarantine lists concatenate (re-sorted by page).
func (h *HealthInfo) Add(o HealthInfo) {
	h.Quarantined = append(h.Quarantined, o.Quarantined...)
	sort.Slice(h.Quarantined, func(a, b int) bool {
		return h.Quarantined[a].Page < h.Quarantined[b].Page
	})
	h.QuarantinedPages += o.QuarantinedPages
}

// quarantine is the tree-level registry of condemned pages. The count is
// kept in an atomic alongside the map so the query hot path pays one atomic
// load — not a lock — in the (overwhelmingly common) healthy case.
type quarantine struct {
	mu    sync.Mutex
	pages map[pagefile.PageID]QuarantinedPage
	n     atomic.Int64
}

// add condemns a page; the first cause wins. Reports whether the page was
// newly added.
func (q *quarantine) add(id pagefile.PageID, epoch uint64, cause error) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.pages == nil {
		q.pages = make(map[pagefile.PageID]QuarantinedPage)
	}
	if _, ok := q.pages[id]; ok {
		return false
	}
	q.pages[id] = QuarantinedPage{Page: id, Epoch: epoch, Cause: cause.Error()}
	q.n.Store(int64(len(q.pages)))
	return true
}

// get returns the quarantine record for id, if any.
func (q *quarantine) get(id pagefile.PageID) (QuarantinedPage, bool) {
	if q.n.Load() == 0 {
		return QuarantinedPage{}, false
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	rec, ok := q.pages[id]
	return rec, ok
}

// list returns the registry ordered by PageID.
func (q *quarantine) list() []QuarantinedPage {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]QuarantinedPage, 0, len(q.pages))
	for _, rec := range q.pages {
		out = append(out, rec)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Page < out[b].Page })
	return out
}

// isCorruption reports whether err condemns the page it came from: a
// checksum mismatch, a misdirected-write trailer, or a structurally
// impossible decode. Plain I/O errors do NOT quarantine — the caller may
// retry the operation, and condemning a page on a fault that never
// inspected its bytes would turn an availability problem into a (false)
// integrity report.
func isCorruption(err error) bool {
	return errors.Is(err, pagefile.ErrChecksum) || errors.Is(err, pagefile.ErrBadPage)
}

// checkQuarantine fast-fails a read of a condemned page with its recorded
// cause. One atomic load when the registry is empty.
func (t *Tree) checkQuarantine(id pagefile.PageID) error {
	if rec, ok := t.quar.get(id); ok {
		return fmt.Errorf("core: page %d quarantined (epoch %d): %s: %w",
			id, rec.Epoch, rec.Cause, pagefile.ErrBadPage)
	}
	return nil
}

// noteReadError inspects a failed page read and quarantines the page when
// the error proves corruption, dropping it from the write buffer and the
// decoded-node cache so no stale good-looking copy survives. Always returns
// err, so call sites can hook it into their error returns inline.
func (t *Tree) noteReadError(id pagefile.PageID, err error) error {
	if err == nil || !isCorruption(err) {
		return err
	}
	if t.quar.add(id, t.vs.Epoch(), err) {
		t.pool.Invalidate(id)
		if t.ncache != nil {
			t.ncache.invalidate(id)
		}
	}
	return err
}

// Health reports the tree's storage-health state.
func (t *Tree) Health() HealthInfo {
	q := t.quar.list()
	return HealthInfo{
		Quarantined:      q,
		QuarantinedPages: len(q),
	}
}
