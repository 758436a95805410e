package core

import (
	"math"

	"repro/internal/pagefile"
)

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

// LiftChooseCut makes t's ChooseSubtree score overlap enlargement for every
// child at level 1, as it did before the candidate cut (chooseCut).
func LiftChooseCut(t *Tree) { t.cut = math.MaxInt }
