package core

import (
	"repro/internal/pagefile"
)

// Page scrubbing: Scrub walks the committed tree and verifies page
// checksums through the store stack's PageVerifier probe, so latent
// corruption (bit rot, torn writes that no query has tripped over yet) is
// found and quarantined on demand instead of at first read.
//
// A pass pins the committed epoch (a snapshot pin, exactly like a reader),
// walks its tree collecting the reachable page set — node pages, leaf data
// pages, the current append page — and verifies each page. The walk reads
// node pages directly from the store, not through the write buffer or the
// decoded-node cache, so scrubbing neither pollutes the read cache nor
// inflates the logical I/O counters the experiments report. Verification
// itself reads only the stored trailer (no cache, no Stats charge).

// Scrub makes one pass over the pages the committed tree reaches and
// reports how many verified clean and how many proved corrupt. Corrupt
// pages are quarantined (see HealthInfo); a corrupt node found by the walk
// counts once and hides its subtree. The pin is held for the whole pass,
// so no page it collected is freed before it is verified. Safe to call
// concurrently with readers and the writer.
func (t *Tree) Scrub() (verified, corrupt int) {
	st, _, release := t.vs.Pin()
	defer release()
	ts, ok := st.(*treeState)
	if !ok || ts == nil {
		return 0, 0
	}
	condemn := func(id pagefile.PageID, err error) {
		if isCorruption(err) {
			corrupt++
			t.noteReadError(id, err)
		}
	}
	for _, id := range t.collectScrubTargets(ts, condemn) {
		if err := t.vs.VerifyPage(id); err != nil {
			// Non-corruption errors (I/O faults) are neither progress nor
			// damage.
			condemn(id, err)
			continue
		}
		verified++
	}
	return verified, corrupt
}

// collectScrubTargets walks the tree of ts for its reachable page set. Node
// pages are read directly from the store (bypassing both caches; see the
// file comment). A node that fails to read or decode goes to condemn and
// stays out of the set, its subtree skipped — the walk cannot see past it.
func (t *Tree) collectScrubTargets(ts *treeState, condemn func(pagefile.PageID, error)) []pagefile.PageID {
	var pages []pagefile.PageID
	seenData := make(map[pagefile.PageID]bool)
	var walk func(id pagefile.PageID)
	walk = func(id pagefile.PageID) {
		pageBuf := make([]byte, pagefile.PageSize)
		if err := t.store.Read(id, pageBuf); err != nil {
			condemn(id, err)
			return
		}
		n, err := t.decodeNode(id, pageBuf)
		if err != nil {
			condemn(id, err)
			return
		}
		pages = append(pages, id)
		for i := 0; i < n.count; i++ {
			if !n.leaf() {
				walk(n.child(i))
			} else if a, _ := n.addr(i); a.Page != pagefile.InvalidPage && !seenData[a.Page] {
				seenData[a.Page] = true
				pages = append(pages, a.Page)
			}
		}
	}
	walk(ts.rootPage)
	if p := ts.dataPage; p != pagefile.InvalidPage && !seenData[p] {
		pages = append(pages, p)
	}
	return pages
}
