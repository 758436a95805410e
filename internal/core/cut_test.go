package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
)

// TestChooseCutKeepsPageCount: R*'s candidate cut scores overlap for 32
// children of a level-1 node instead of all of them (up to 102), which
// could choose worse subtrees and grow the tree. On insert-built LB and CA
// trees the cut's page count stays within 2 % of the full test's.
func TestChooseCutKeepsPageCount(t *testing.T) {
	if testing.Short() {
		t.Skip("builds four trees of 3,180 to 3,720 objects by insertion")
	}
	for _, name := range []dataset.Name{dataset.LB, dataset.CA} {
		objs := dataset.Generate(dataset.Config{Name: name, Scale: 0.06, Seed: 1})
		var pages [2]int
		for k, lift := range []bool{false, true} {
			tree, err := core.New(core.Options{Dim: 2})
			if err != nil {
				t.Fatal(err)
			}
			if lift {
				core.LiftChooseCut(tree)
			}
			for _, o := range objs {
				if err := tree.Insert(o); err != nil {
					t.Fatal(err)
				}
			}
			if err := tree.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := tree.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if pages[k], err = tree.IndexPages(); err != nil {
				t.Fatal(err)
			}
		}
		cut, full := pages[0], pages[1]
		t.Logf("%s, %d objects: %d index pages with the cut, %d without", name, len(objs), cut, full)
		if d := float64(cut-full) / float64(full); d > 0.02 || d < -0.02 {
			t.Errorf("%s: %d index pages with the cut, %d without (%+.1f %%)", name, cut, full, 100*d)
		}
	}
}
