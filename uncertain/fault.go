package uncertain

import (
	"repro/internal/core"
	"repro/internal/pagefile"
)

// Storage fault tolerance, public surface. The storage stack underneath an
// index detects corruption with per-page checksums on every read
// (ErrChecksum) and verifies the whole committed tree when asked
// (Tree.Scrub). A corrupt page fails the read that reached it with a typed
// error, and every later read asks the store again: nothing remembers a
// failed read. Any other store error fails the operation that hit it and is
// returned as is: a failed mutation rolls back, and the caller may retry
// the operation.

// ErrChecksum matches (via errors.Is) any error caused by a page whose
// stored checksum does not cover the bytes read back — detected storage
// corruption. The index never returns wrong answers from such a page; it
// returns this error instead.
var ErrChecksum = pagefile.ErrChecksum

// ErrBadPage matches (via errors.Is) any error caused by a structurally
// unusable page: a misdirected write, or an impossible decode.
var ErrBadPage = pagefile.ErrBadPage

// ErrOldLayout matches (via errors.Is) OpenTree's refusal of an index file
// written with the previous leaf layout (8-byte CFB coefficients). Such a
// file is never mis-read; rebuild it from its data.
var ErrOldLayout = core.ErrOldLayout

// Scrub verifies every page the committed tree reaches — nodes, the data
// pages their entries point at and the committed append page — and reports
// how many verified clean and the errors of those that proved corrupt, so
// latent damage no query has read yet is found now rather than at first
// read. Each error matches ErrChecksum or ErrBadPage and, through
// errors.As, a *pagefile.ChecksumError or *pagefile.BadPageError naming its
// page. Runs on the caller's goroutine against a pinned snapshot; safe
// beside queries and the writer.
func (t *Tree) Scrub() (verified int, corrupt []error) { return t.inner.Scrub() }
