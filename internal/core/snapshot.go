package core

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/pagefile"
)

// This file is the epoch surface of the tree: mutations build a
// copy-on-write path from leaf to root (writeNode relocates committed
// pages to shadow pages), Commit atomically publishes the new root as the
// next epoch, and Snapshot pins a committed epoch for lock-free reads.
// Writers still serialize among themselves; readers never wait on anyone.

// treeState is the committed state published at each epoch: everything a
// reader needs to traverse the tree as of that commit, and everything the
// writer needs to roll a failed batch back.
type treeState struct {
	rootPage  pagefile.PageID
	rootLevel int
	size      int
	dataPage  pagefile.PageID
	shapes    []shape // the shape table as of the epoch (shapes.go)
	// rootMBR is the root boundary box at p = 0 (rootBox) — the rectangle
	// containing every object MBR of the epoch — so sharded readers can
	// prune whole shards against a query without touching the shard's
	// pages. Zero for an empty tree, and after Open when the root could not
	// be read; consumers must treat zero as "cannot prune".
	rootMBR geom.Rect
}

func (t *Tree) workingState() *treeState {
	return &treeState{
		rootPage:  t.rootPage,
		rootLevel: t.rootLevel,
		size:      t.size,
		dataPage:  t.data.CurrentPage(),
		shapes:    t.shapes,
		rootMBR:   t.rootMBR,
	}
}

// Commit seals every mutation since the last commit as one epoch: flushes
// the shadow pages through the buffer pool, writes the metadata page (for
// a persistent tree), then atomically publishes the working root as the
// new epoch. Readers pinning a snapshot before the commit keep the previous
// epoch's pages; readers pinning after see the new tree. Pages the epoch
// retired are reclaimed once no older snapshot remains.
//
// Insert, Delete and BulkLoad never commit on their own, so the caller
// chooses the epoch granularity, and grouping amortizes by itself:
// writeNode relocates a node only while its page is committed, and a
// relocated page stays writable in place until the next Commit seals it —
// within one epoch each node is relocated at most once, however many
// operations touch it, and the data file's append page is written once.
//
// The metadata write sits between the flush and the publication — the
// crash-consistency point: every page of the new epoch is durable before
// the metadata switches to it, and the old epoch's pages were never
// overwritten in place, so a crash at any operation boundary leaves the
// file recoverable at the last committed epoch.
func (t *Tree) Commit() error {
	// Data first: leaf entries flushed by the pool reference record
	// addresses that must be durable (and readable) no later than the
	// nodes pointing at them.
	if err := t.data.Flush(); err != nil {
		return err
	}
	if err := t.pool.Flush(); err != nil {
		return err
	}
	if t.meta != pagefile.InvalidPage {
		if err := t.writeMeta(); err != nil {
			return err
		}
	}
	return t.vs.Commit(t.workingState())
}

// Rollback abandons every mutation since the last commit, typically after
// a failed operation: shadow pages are freed, deferred frees are dropped
// (their targets are still live in the last committed epoch), and the
// working root/size/data state rewinds to the last commit. The tree
// remains usable; the uncommitted operations simply never happened.
func (t *Tree) Rollback() error {
	st, _ := t.committedState()
	if st == nil {
		return fmt.Errorf("core: rollback with no committed epoch")
	}
	t.rootPage = st.rootPage
	t.rootLevel = st.rootLevel
	t.rootMBR = st.rootMBR
	t.size = st.size
	t.data.SetCurrent(st.dataPage)
	t.setShapes(st.shapes)
	return t.vs.Rollback()
}

func (t *Tree) committedState() (*treeState, uint64) {
	st := t.vs.State()
	if st == nil {
		return nil, 0
	}
	return st.(*treeState), t.vs.Epoch()
}

// Epoch returns the last committed epoch number.
func (t *Tree) Epoch() uint64 { return t.vs.Epoch() }

// CommittedLen returns the object count of the last committed epoch —
// readable concurrently with a writer (whose uncommitted mutations are not
// yet visible).
func (t *Tree) CommittedLen() int {
	st, _ := t.committedState()
	if st == nil {
		return 0
	}
	return st.size
}

// GCStats reports the epoch collector's state: committed epoch, live
// snapshot pins, and pages awaiting reclamation.
func (t *Tree) GCStats() (epoch uint64, pins int, pendingPages int) {
	return t.vs.GCStats()
}

// GCInfo reports the epoch collector's full health: pending epochs and
// pages, the lifetime reclaim counter, and reclaimer state.
func (t *Tree) GCInfo() pagefile.GCInfo { return t.vs.GCInfo() }

// StopBackgroundReclaim stops the background goroutines Options started —
// the epoch reclaimer and the page scrubber; idempotent. Garbage the
// reclaimer had not drained is picked up by the next Commit, Reclaim or
// Flush.
func (t *Tree) StopBackgroundReclaim() {
	t.vs.StopReclaimer()
	t.StopScrubber()
}

// Reclaim frees whatever retired pages the current snapshot pins allow.
// Writer-side, like Commit.
func (t *Tree) Reclaim() error { return t.vs.Reclaim() }

// Snapshot is a pinned view of one committed epoch. Any number of
// goroutines' snapshots coexist with each other and with the (single)
// writer: the pages a snapshot can reach are never rewritten in place and
// never recycled while the pin is held. Queries on a snapshot take no
// lock; Close releases the pin (idempotent) — forgetting it retains the
// epoch's retired pages until the tree closes.
type Snapshot struct {
	t       *Tree
	st      *treeState
	epoch   uint64
	release func()
}

// Snapshot pins the current committed epoch (New and Open both publish one
// before they return).
func (t *Tree) Snapshot() *Snapshot {
	st, epoch, release := t.vs.Pin()
	return &Snapshot{t: t, st: st.(*treeState), epoch: epoch, release: release}
}

// Close releases the snapshot's pin. Idempotent.
func (s *Snapshot) Close() { s.release() }

// Epoch returns the pinned epoch number.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Len returns the object count at the pinned epoch.
func (s *Snapshot) Len() int { return s.st.size }

// RootMBR returns the pinned epoch's root bounding box at p = 0 — the
// rectangle containing every indexed object's region MBR, recorded by the
// writer at commit. The zero Rect means unknown (an empty epoch, or a root
// Open could not read); callers pruning on it must treat zero as "may
// contain anything".
func (s *Snapshot) RootMBR() geom.Rect { return s.st.rootMBR }

// CheckInvariants validates the pinned epoch's structure — usable while a
// writer mutates the working tree, since the snapshot's pages are frozen.
func (s *Snapshot) CheckInvariants() error { return s.t.checkTreeAt(s.st, false) }

// CheckRecords is CheckInvariants plus a read of every record that a leaf
// entry's shape reference vouches for.
func (s *Snapshot) CheckRecords() error { return s.t.checkTreeAt(s.st, true) }

// Shapes returns the size of the pinned epoch's shape table.
func (s *Snapshot) Shapes() int { return len(s.st.shapes) }
