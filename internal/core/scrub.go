package core

import (
	"errors"

	"repro/internal/pagefile"
)

// Page scrubbing: Scrub walks the committed tree and checks every page it
// reaches, so latent corruption (bit rot, torn writes that no query has
// tripped over yet) is found on demand instead of at first read.
//
// A pass pins the committed epoch (a snapshot pin, exactly like a reader)
// and walks its tree. Node pages are read directly from the store
// (readCommitted), not through the decoded-node cache, so scrubbing does
// not pollute the read cache; that checksummed read and the decode are the
// node's check. Data pages and the current append page are checked through
// the store's PageVerifier probe, which reads only the stored page (no
// cache, no Stats charge); a store without one verifies every page.

// Scrub makes one pass over the pages the committed tree reaches and
// reports how many verified clean, and the errors of the pages that proved
// corrupt: each matches ErrChecksum or ErrBadPage and, through errors.As, a
// *pagefile.ChecksumError or *pagefile.BadPageError naming its page. A
// corrupt node hides its subtree. A page whose check fails for another
// reason (an I/O error) is neither verified nor corrupt. Scrub remembers
// nothing: the next read of a corrupt page asks the store again. The pin is
// held for the whole pass, so no page it reaches is freed before it is
// checked. Safe to call concurrently with readers and the writer.
func (t *Tree) Scrub() (verified int, corrupt []error) {
	ts, epoch := t.pin()
	defer t.unpin(epoch)
	check := func(err error) bool {
		if err == nil {
			verified++
			return true
		}
		if errors.Is(err, pagefile.ErrChecksum) || errors.Is(err, pagefile.ErrBadPage) {
			corrupt = append(corrupt, err)
		}
		return false
	}
	pv, _ := t.store.(pagefile.PageVerifier)
	seenData := make(map[pagefile.PageID]bool)
	verifyData := func(id pagefile.PageID) {
		if id != pagefile.InvalidPage && !seenData[id] {
			seenData[id] = true
			var err error
			if pv != nil {
				err = pv.VerifyPage(id)
			}
			check(err)
		}
	}
	var walk func(id pagefile.PageID, level int)
	walk = func(id pagefile.PageID, level int) {
		n, err := t.readCommitted(id, level)
		if !check(err) {
			return
		}
		for i := 0; i < n.count; i++ {
			if !n.leaf() {
				walk(n.child(i), level-1)
			} else {
				a, _ := n.addr(i)
				verifyData(a.Page)
			}
		}
	}
	walk(ts.rootPage, ts.rootLevel)
	verifyData(ts.dataPage)
	return verified, corrupt
}
