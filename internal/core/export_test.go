package core

import "repro/internal/pagefile"

// Hooks into the tree's private state for the tests of this package.

// corruptDirectory sets id's directory entry to addr, or removes it when
// live is false, bypassing the journal: no mutation makes such a change.
func (t *Tree) corruptDirectory(id int64, addr pagefile.DataAddr, live bool) {
	if live {
		t.dir[id] = addr
	} else {
		delete(t.dir, id)
	}
}
