package uncertain

import (
	"errors"
	"fmt"

	"repro/internal/pagefile"
)

// The write path: outside WriteBatch every Insert and Delete publishes as
// its own epoch. Inside one, mutations join the batch and publish together
// when fn returns — one metadata write, one pool flush, one data-page flush
// and at most one shadow relocation per node for the whole batch.
// Snapshots only ever observe committed boundaries; a crash recovers to
// the last committed boundary, never mid-batch.

// addrUndo is one entry of the directory's journal since the last epoch: an
// ID, whether it was live before the mutation, and its record address then.
type addrUndo struct {
	id   int64
	prev pagefile.DataAddr
	live bool
}

// track records a completed mutation in the directory, with its undo
// entry: an insert makes id live at addr, a delete (live false) removes it.
func (t *Tree) track(id int64, addr pagefile.DataAddr, live bool) {
	prev, was := t.addrs[id]
	t.undo = append(t.undo, addrUndo{id: id, prev: prev, live: was})
	t.setAddr(id, addr, live)
}

// revertUndo replays the journal backwards.
func (t *Tree) revertUndo() {
	for i := len(t.undo) - 1; i >= 0; i-- {
		t.setAddr(t.undo[i].id, t.undo[i].prev, t.undo[i].live)
	}
	t.undo = t.undo[:0]
}

// setAddr makes id live with its record at addr, or removes it.
func (t *Tree) setAddr(id int64, addr pagefile.DataAddr, live bool) {
	if live {
		t.addrs[id] = addr
	} else {
		delete(t.addrs, id)
	}
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
	return b.run(func() error { return b.t.insert(id, pdf) })
}

func (b *treeBatch) Delete(id int64) error {
	return b.run(func() error { return b.t.delete(id) })
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
