package uncertain

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
)

// Group commit: instead of publishing one commit epoch per mutation (the
// pre-group behavior, still the default), a Tree can gather mutations into
// an open group and publish them together — one metadata write, one pool
// flush, one data-page flush, and at most one shadow relocation per node
// for the whole group. Groups close on a size threshold
// (Config.GroupCommitOps), an age deadline (Config.GroupCommitInterval),
// an explicit WriteBatch, or Flush/Close. Snapshots only ever observe
// committed group boundaries; a crash recovers to the last committed
// boundary, never mid-group.

// pdfUndo is one entry of the open group's bookkeeping journal: enough to
// restore the pdfs map if the group rolls back.
type pdfUndo struct {
	id   int64
	prev Rect
	had  bool
}

// trackInsert records the pdfs-map update (with its undo entry) for an
// insert that joined the open group.
func (t *Tree) trackInsert(id int64, mbr Rect) {
	prev, had := t.pdfs[id]
	t.undo = append(t.undo, pdfUndo{id: id, prev: prev, had: had})
	t.pdfs[id] = mbr
}

// trackDelete records the pdfs-map removal for a delete that joined the
// open group.
func (t *Tree) trackDelete(id int64) {
	prev, had := t.pdfs[id]
	t.undo = append(t.undo, pdfUndo{id: id, prev: prev, had: had})
	delete(t.pdfs, id)
}

// revertUndo replays the open group's bookkeeping journal backwards.
func (t *Tree) revertUndo() {
	for i := len(t.undo) - 1; i >= 0; i-- {
		u := t.undo[i]
		if u.had {
			t.pdfs[u.id] = u.prev
		} else {
			delete(t.pdfs, u.id)
		}
	}
	t.undo = t.undo[:0]
}

// noteOp counts a completed mutation into the open group and commits the
// group if the policy says so.
func (t *Tree) noteOp() error {
	if t.groupOps == 0 {
		t.groupStart = time.Now()
	}
	t.groupOps++
	return t.maybeCommit()
}

// maybeCommit applies the group-commit policy: never inside an explicit
// WriteBatch; immediately with grouping disabled; otherwise on the size
// threshold or the age deadline.
func (t *Tree) maybeCommit() error {
	if t.inBatch {
		return nil
	}
	if t.gcOps <= 1 && t.gcInterval == 0 {
		return t.commitGroupNow()
	}
	if t.gcOps > 1 && t.groupOps >= t.gcOps {
		return t.commitGroupNow()
	}
	if t.gcInterval > 0 && time.Since(t.groupStart) >= t.gcInterval {
		return t.commitGroupNow()
	}
	return nil
}

// commitGroupNow seals the open group as one epoch — through the metadata
// page for file-backed trees, the crash-consistency point; on a commit
// failure the whole group rolls back. With grouping disabled it runs after
// every mutation, so each completed Insert/Delete is an epoch of its own.
func (t *Tree) commitGroupNow() error {
	if err := t.inner.Commit(); err != nil {
		return t.rollback(err)
	}
	t.groupOps = 0
	t.undo = t.undo[:0]
	return nil
}

// commitPending seals the open group if it holds any mutations.
func (t *Tree) commitPending() error {
	if t.groupOps == 0 {
		return nil
	}
	return t.commitGroupNow()
}

// startGroupTimer arms the group-commit deadline timer; no-op without
// Config.GroupCommitInterval.
func (t *Tree) startGroupTimer() {
	interval := t.gcInterval
	if interval <= 0 {
		return
	}
	period := interval / 4
	if period < time.Millisecond {
		period = time.Millisecond
	}
	t.tickStop = make(chan struct{})
	t.tickDone = make(chan struct{})
	go func() {
		defer close(t.tickDone)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-t.tickStop:
				return
			case <-tick.C:
				t.mu.Lock()
				if t.groupOps > 0 && time.Since(t.groupStart) >= interval {
					if err := t.commitGroupNow(); err != nil && t.tickErr == nil {
						t.tickErr = err
					}
				}
				t.mu.Unlock()
			}
		}
	}()
}

// stopGroupTimer stops the deadline timer and waits for it; idempotent.
func (t *Tree) stopGroupTimer() {
	if t.tickStop == nil {
		return
	}
	close(t.tickStop)
	<-t.tickDone
	t.tickStop, t.tickDone = nil, nil
}

// takeTickErr returns and clears a stashed timer-side commit failure.
// Caller holds t.mu.
func (t *Tree) takeTickErr() error {
	err := t.tickErr
	t.tickErr = nil
	return err
}

// BatchWriter is the mutation surface inside WriteBatch. Errors are
// sticky: after a failed operation (other than a not-found delete) the
// batch is already rolled back and every later call returns the same error.
type BatchWriter interface {
	// Insert adds an object to the batch.
	Insert(id int64, pdf PDF) error
	// Delete removes an object inserted in this process lifetime.
	Delete(id int64) error
	// DeleteWithRegion removes an object by ID and region MBR. A not-found
	// delete returns core's not-found error without poisoning the batch.
	DeleteWithRegion(id int64, regionMBR Rect) error
}

// treeBatch implements BatchWriter over a Tree whose inBatch flag
// suppresses the auto-commit policy; WriteBatch holds the writer lock for
// the whole batch, so the methods call the unlocked mutators.
type treeBatch struct {
	t   *Tree
	err error
}

func (b *treeBatch) run(op func() error) error {
	if b.err != nil {
		return fmt.Errorf("uncertain: batch already failed: %w", b.err)
	}
	if err := op(); err != nil {
		if !errors.Is(err, core.ErrNotFound) {
			b.err = err
		}
		return err
	}
	return nil
}

func (b *treeBatch) Insert(id int64, pdf PDF) error {
	return b.run(func() error { return b.t.insert(id, pdf) })
}

func (b *treeBatch) Delete(id int64) error {
	return b.run(func() error { return b.t.delete(id) })
}

func (b *treeBatch) DeleteWithRegion(id int64, regionMBR Rect) error {
	return b.run(func() error { return b.t.deleteWithRegion(id, regionMBR) })
}

// WriteBatch runs fn against a batch writer under the writer lock and
// commits everything it did as ONE epoch: concurrent readers — who pin
// snapshots without the lock — observe either none of the batch or all of
// it, never a prefix, and for file-backed trees the whole batch
// becomes durable atomically — a crash recovers to this batch boundary or
// the previous one, never between. If fn returns an error or any mutation
// fails, the whole batch rolls back and the tree is unchanged. Any open
// auto-commit group is sealed (as its own epoch) first. Batches do not
// nest: fn mutates through the BatchWriter only — the tree's own mutators
// (and a nested WriteBatch) would wait forever for the writer lock this
// call holds. Queries are fine inside fn; they see the committed epoch.
func (t *Tree) WriteBatch(fn func(BatchWriter) error) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.commitPending(); err != nil {
		return err
	}
	t.inBatch = true
	b := &treeBatch{t: t}
	err := fn(b)
	t.inBatch = false
	if b.err != nil {
		// The failing mutation already rolled the whole batch back.
		if err != nil {
			return err
		}
		return b.err
	}
	if err != nil {
		return t.rollback(err)
	}
	return t.commitPending()
}
