package uncertain

import (
	"errors"
	"fmt"

	"repro/internal/core"
)

// The write path: outside WriteBatch every Insert and Delete publishes as
// its own epoch. Inside one, mutations join the batch and publish together
// when fn returns — one metadata write, one pool flush, one data-page flush
// and at most one shadow relocation per node for the whole batch.
// Snapshots only ever observe committed boundaries; a crash recovers to
// the last committed boundary, never mid-batch.

// pdfUndo is one entry of the uncommitted mutations' bookkeeping journal:
// enough to restore the pdfs map if they roll back.
type pdfUndo struct {
	id   int64
	prev Rect
	had  bool
}

// trackInsert records the pdfs-map update (with its undo entry) for a
// completed insert.
func (t *Tree) trackInsert(id int64, mbr Rect) {
	prev, had := t.pdfs[id]
	t.undo = append(t.undo, pdfUndo{id: id, prev: prev, had: had})
	t.pdfs[id] = mbr
}

// trackDelete records the pdfs-map removal for a completed delete.
func (t *Tree) trackDelete(id int64) {
	prev, had := t.pdfs[id]
	t.undo = append(t.undo, pdfUndo{id: id, prev: prev, had: had})
	delete(t.pdfs, id)
}

// revertUndo replays the bookkeeping journal backwards.
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

// endOp publishes a completed mutation as its own epoch, unless it joined
// an open WriteBatch, which publishes once fn returns.
func (t *Tree) endOp() error {
	if t.inBatch {
		return nil
	}
	return t.commit()
}

// commit publishes every mutation since the last epoch as one new epoch —
// through the metadata page for file-backed trees, the crash-consistency
// point; on a commit failure they all roll back.
func (t *Tree) commit() error {
	if err := t.inner.Commit(); err != nil {
		return t.rollback(err)
	}
	t.undo = t.undo[:0]
	return nil
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

// treeBatch implements BatchWriter over a Tree whose inBatch flag holds
// back the per-mutation commit; WriteBatch holds the writer lock for the
// whole batch, so the methods call the unlocked mutators.
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
// fails, the whole batch rolls back and the tree is unchanged. WriteBatch
// is the only way to make several mutations one epoch. Batches do not
// nest: fn mutates through the BatchWriter only — the tree's own mutators
// (and a nested WriteBatch) would wait forever for the writer lock this
// call holds. Queries are fine inside fn; they see the committed epoch.
func (t *Tree) WriteBatch(fn func(BatchWriter) error) error {
	t.mu.Lock()
	defer t.mu.Unlock()
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
	if len(t.undo) == 0 {
		return nil
	}
	return t.commit()
}
