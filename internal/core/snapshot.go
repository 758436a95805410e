package core

import (
	"fmt"
	"slices"
	"sync/atomic"

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
	unshaped  int     // Tree.unshaped as of the epoch
	// rootMBR is the root boundary box at p = 0 (rootBox) — the rectangle
	// containing every object MBR of the epoch — so sharded readers can
	// prune whole shards against a query without touching the shard's
	// pages. Zero for an empty tree; consumers must treat zero as "cannot
	// prune".
	rootMBR geom.Rect
}

func (t *Tree) workingState() *treeState {
	return &treeState{
		rootPage:  t.rootPage,
		rootLevel: t.rootLevel,
		size:      t.dir.len(),
		dataPage:  t.appendPage,
		shapes:    t.shapes,
		unshaped:  t.unshaped,
		rootMBR:   t.rootMBR,
	}
}

// Commit seals every mutation since the last commit as one epoch: writes
// each dirty page once — node and data pages alike, in ascending page
// order — then the metadata page (for a persistent tree), then atomically
// publishes the working root as the new epoch. Readers pinning a snapshot
// before the commit keep the previous epoch's pages; readers pinning after
// see the new tree. Pages the epoch retired are reclaimed once no older
// snapshot remains.
//
// Insert, Delete and BulkLoad never commit on their own, so the caller
// chooses the epoch granularity, and grouping amortizes by itself:
// writeNode relocates a node only while its page is committed, and a
// relocated page stays writable in place until the next Commit seals it —
// within one epoch each node is relocated at most once, however many
// operations touch it, and its page is written once, at the commit, as is
// each data page the epoch appended to.
//
// The metadata write sits between the page writes and the publication —
// the crash-consistency point: every page of the new epoch is durable before
// the metadata switches to it, and the old epoch's pages were never
// overwritten in place (the append page only gains slots past its
// committed ones), so a crash at any operation boundary leaves the file
// recoverable at the last committed epoch.
func (t *Tree) Commit() error {
	if err := t.writeDirty(); err != nil {
		return err
	}
	if t.meta != pagefile.InvalidPage {
		if err := t.writeMeta(); err != nil {
			return err
		}
	}
	t.publish(t.workingState())
	// Neither is kept: a large batch would hold its journal's and its
	// pages' memory.
	t.undo = nil
	t.dirty = make(map[pagefile.PageID][]byte)
	t.dir.compact()
	return nil
}

// writeDirty writes the open batch's dirty pages to the store in ascending
// page order, refusing one that is not fresh (ErrCOWViolation): a committed
// page is relocated, never rewritten — except the committed append page,
// whose committed records an append never moves. A failed write leaves the
// map whole, so the batch can still roll back or commit again.
func (t *Tree) writeDirty() error {
	st := t.committed() // nil before New's first commit
	ids := make([]pagefile.PageID, 0, len(t.dirty))
	for id := range t.dirty {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		err := ErrCOWViolation
		if t.isFresh(id) || st != nil && id == st.dataPage {
			err = t.store.Write(id, t.dirty[id])
		}
		if err != nil {
			return fmt.Errorf("core: writing page %d: %w", id, err)
		}
	}
	return nil
}

// Rollback abandons every mutation since the last commit, typically after
// a failed operation: shadow pages are freed, their dirty bytes — node and
// data pages' alike — dropped unwritten, deferred frees are dropped (their
// targets are still live in the last committed epoch), and the working
// root, directory, append page and shape state rewinds to the last commit.
// The batch wrote no page, so its records leave no slot in the store. The
// tree remains usable; the uncommitted operations simply never happened.
func (t *Tree) Rollback() error {
	st := t.committed()
	t.rootPage = st.rootPage
	t.rootLevel = st.rootLevel
	t.rootMBR = st.rootMBR
	t.revertDir()
	t.dirty = make(map[pagefile.PageID][]byte)
	t.appendPage, t.appendBuf = st.dataPage, nil
	t.setShapes(st.shapes)
	t.unshaped = st.unshaped
	return t.abandon()
}

// CommittedLen returns the object count of the last committed epoch —
// readable concurrently with a writer (whose uncommitted mutations are not
// yet visible).
func (t *Tree) CommittedLen() int { return t.committed().size }

// Snapshot is a pinned view of one committed epoch. Any number of
// goroutines' snapshots coexist with each other and with the (single)
// writer: the pages a snapshot can reach are never rewritten in place and
// never recycled while the pin is held. Queries on a snapshot take no
// lock; Close releases the pin (idempotent) — forgetting it retains the
// epoch's retired pages until the tree closes.
type Snapshot struct {
	t      *Tree
	st     *treeState
	epoch  uint64
	closed atomic.Bool
}

// Snapshot pins the current committed epoch (New and Open both publish one
// before they return).
func (t *Tree) Snapshot() *Snapshot {
	st, epoch := t.pin()
	return &Snapshot{t: t, st: st, epoch: epoch}
}

// Close releases the snapshot's pin. Idempotent.
func (s *Snapshot) Close() {
	if s.closed.CompareAndSwap(false, true) {
		s.t.unpin(s.epoch)
	}
}

// Epoch returns the pinned epoch number.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Len returns the object count at the pinned epoch.
func (s *Snapshot) Len() int { return s.st.size }

// RootMBR returns the pinned epoch's root bounding box at p = 0 — the
// rectangle containing every indexed object's region MBR, recorded by the
// writer at commit. The zero Rect means an empty epoch; callers pruning on
// it must treat zero as "may contain anything".
func (s *Snapshot) RootMBR() geom.Rect { return s.st.rootMBR }

// CheckInvariants validates the pinned epoch's structure — usable while a
// writer mutates the working tree, since the snapshot's pages are frozen.
func (s *Snapshot) CheckInvariants() error { return s.t.checkTreeAt(s.st, nil, nil) }

// CheckRecords is CheckInvariants plus a read of every record that a leaf
// entry's shape reference vouches for, whose centre must be a centre
// entry's to the bit.
func (s *Snapshot) CheckRecords() error {
	sc := getScratch()
	defer sc.release()
	return s.t.checkTreeAt(s.st, nil, sc)
}

// Shapes returns the size of the pinned epoch's shape table.
func (s *Snapshot) Shapes() int { return len(s.st.shapes) }
