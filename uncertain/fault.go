package uncertain

import (
	"repro/internal/core"
	"repro/internal/pagefile"
)

// Storage fault tolerance, public surface. The storage stack underneath an
// index detects corruption with per-page checksums on every read
// (ErrChecksum), quarantines pages proven corrupt so they are never served
// from a cache (Health()), and verifies the whole committed tree when asked
// (Tree.Scrub). Any other store error fails the operation that hit it and
// is returned as is: a failed mutation rolls back, and the caller may retry
// the operation.

// ErrChecksum matches (via errors.Is) any error caused by a page whose
// stored checksum does not cover the bytes read back — detected storage
// corruption. The index never returns wrong answers from such a page; it
// returns this error instead.
var ErrChecksum = pagefile.ErrChecksum

// ErrBadPage matches (via errors.Is) any error caused by a structurally
// unusable page: quarantined after a checksum failure, a misdirected
// write, or an impossible decode.
var ErrBadPage = pagefile.ErrBadPage

// ErrOldLayout matches (via errors.Is) OpenTree's refusal of an index file
// written with the previous leaf layout (8-byte CFB coefficients). Such a
// file is never mis-read; rebuild it from its data.
var ErrOldLayout = core.ErrOldLayout

// HealthInfo is an index's storage-health report: the quarantined pages.
// Sharded indexes merge the per-shard reports (counts sum, quarantine lists
// concatenate).
type HealthInfo = core.HealthInfo

// QuarantinedPage identifies one page the index has condemned: its ID, the
// committed epoch when the damage was first observed, and the error that
// condemned it.
type QuarantinedPage = core.QuarantinedPage

// Health reports the tree's storage-health state. Safe to call at any
// time, concurrently with queries and the writer; on a healthy index the
// report is all zeroes.
func (t *Tree) Health() HealthInfo { return t.inner.Health() }

// Scrub verifies the checksum of every page the committed tree reaches —
// nodes, the data pages their entries point at and the append page — and
// reports how many verified clean and how many proved corrupt. Corrupt
// pages are quarantined and listed in Health().Quarantined, so latent
// damage no query has read yet is found now rather than at first read.
// Runs on the caller's goroutine against a pinned snapshot; safe beside
// queries and the writer.
func (t *Tree) Scrub() (verified, corrupt int) { return t.inner.Scrub() }

// Health merges the shards' storage-health reports: counters sum,
// quarantine lists concatenate (each page belongs to exactly one shard's
// store).
func (s *ShardedTree) Health() HealthInfo {
	var info HealthInfo
	for _, sh := range s.shards {
		info.Add(sh.Health())
	}
	return info
}
