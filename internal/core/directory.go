package core

import "errors"

// The ID directory (Tree.dir) maps every live ID of the working tree to its
// record's address: Delete's key and the object count. Open rebuilds it
// from the leaves, and Rollback reverts it with the pages.

var (
	// ErrDuplicateID is returned by Insert for an ID the tree holds, and by
	// BulkLoad for an ID its input names twice. Nothing is mutated.
	ErrDuplicateID = errors.New("core: object ID already in the index")
	// ErrNotFound is returned by Delete for an ID the tree does not hold.
	// Nothing is mutated.
	ErrNotFound = errors.New("core: object not found")
)

// dirUndo is one entry of the journal since the last Commit (Tree.undo): an
// ID and its address before a mutation — live says whether it had one — or,
// with load set, a BulkLoad, which found the directory empty.
type dirUndo struct {
	id         int64
	prev       DataAddr
	live, load bool
}

// journal records id's directory entry before a mutation changes it.
func (t *Tree) journal(id int64) {
	prev, live := t.dir[id]
	t.undo = append(t.undo, dirUndo{id: id, prev: prev, live: live})
}

// revertDir replays the journal backwards to the last Commit.
func (t *Tree) revertDir() {
	for i := len(t.undo) - 1; i >= 0; i-- {
		switch u := t.undo[i]; {
		case u.load:
			t.dir = make(map[int64]DataAddr)
		case u.live:
			t.dir[u.id] = u.prev
		default:
			delete(t.dir, u.id)
		}
	}
	t.undo = nil
}

// Holds reports whether id is live in the working tree.
func (t *Tree) Holds(id int64) bool {
	_, ok := t.dir[id]
	return ok
}

// RecordAddr returns the address of a live object's data record.
func (t *Tree) RecordAddr(id int64) (DataAddr, bool) {
	addr, ok := t.dir[id]
	return addr, ok
}

// Uncommitted returns the number of inserts, deletes and bulk loads since
// the last Commit or Rollback.
func (t *Tree) Uncommitted() int { return len(t.undo) }
