package uncertain

import (
	"errors"
	"fmt"

	"repro/internal/core"
)

// The write path: outside WriteBatch every Insert and Delete publishes as
// its own epoch. Inside one, mutations join the batch and publish together
// when fn returns — one metadata write, one data-page flush, one write of
// each node page the batch changed and at most one shadow relocation per
// node for the whole batch.
// Snapshots only ever observe committed boundaries; a crash recovers to
// the last committed boundary, never mid-batch.

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
	return nil
}

// BatchWriter is the mutation surface inside WriteBatch. ErrDuplicateID
// and ErrNotFound mutate nothing and leave the batch usable; fn decides
// whether they fail it (return the error and the whole batch rolls back).
// Any other error is sticky: the batch is already rolled back and every
// later call returns the same error.
type BatchWriter interface {
	// Insert adds an object to the batch.
	Insert(id int64, pdf PDF) error
	// Delete removes an object by ID.
	Delete(id int64) error
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
		if !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrDuplicateID) {
			b.err = err
		}
		return err
	}
	return nil
}

func (b *treeBatch) Insert(id int64, pdf PDF) error {
	return b.run(func() error { return b.t.settle(b.t.inner.Insert(core.Object{ID: id, PDF: pdf})) })
}

func (b *treeBatch) Delete(id int64) error {
	return b.run(func() error { return b.t.settle(b.t.inner.Delete(id)) })
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
// call holds. Queries are fine inside fn; they see the committed epoch. If
// fn panics, the batch rolls back before the panic goes on.
func (t *Tree) WriteBatch(fn func(BatchWriter) error) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.inBatch = true
	defer func() {
		if p := recover(); p != nil {
			// Left in batch mode, the tree would publish no later mutation
			// until a commit published them with half of this batch. The
			// rollback's error is dropped: the panic is what fn's caller
			// sees, and a failed free only leaks the batch's fresh pages.
			t.inBatch = false
			_ = t.rollback(errors.New("uncertain: WriteBatch fn panicked"))
			panic(p)
		}
	}()
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
	if t.inner.Uncommitted() == 0 {
		return nil
	}
	return t.commit()
}
