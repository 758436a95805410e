package experiments

import (
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
)

// Fig11Row is one dataset's update-cost breakdown (Figure 11).
type Fig11Row struct {
	Dataset dataset.Name
	// Per-insertion averages during index construction.
	InsertIOCostSec float64 // era model over logical page accesses
	InsertCPUSec    float64 // measured CPU (PCR computation + CFB fit + descent)
	InsertWallPerOp time.Duration
	// Per-deletion averages while draining the index.
	DeleteIOCostSec float64
	DeleteCPUSec    float64
	DeleteWallPerOp time.Duration
}

// Fig11 reproduces Figure 11: the amortized insertion cost (I/O + CPU
// breakdown) during construction of the U-tree on each dataset, then the
// amortized deletion cost while removing every object. The paper's shape:
// insertions cost ≈ tens of ms dominated by CPU — there the Simplex runs of
// the CFB fit and the PCR computation; deletions are several times pricier
// and I/O-dominated. Here the fit reads the same optimum off two convex
// hulls (pcr.FitOut) and costs microseconds, so the CPU column is mostly
// ChooseSubtree and its share of an insert is not the paper's.
func Fig11(cfg Config) ([]Fig11Row, error) {
	cfg = cfg.withDefaults()
	var rows []Fig11Row
	out := cfg.Out
	fprintf(out, "Figure 11: update overhead (U-tree, per operation)\n")
	fprintf(out, "%10s %14s %14s %16s %14s %14s %16s\n",
		"dataset", "ins I/O(s)", "ins CPU(s)", "ins wall", "del I/O(s)", "del CPU(s)", "del wall")
	for _, name := range dataset.All() {
		t, objs, err := buildTree(name, core.UTree, 15, cfg)
		if err != nil {
			return nil, err
		}
		var row Fig11Row
		row.Dataset = name
		ins := t.InsertStats()
		row.InsertIOCostSec = float64(ins.PageReads+ins.PageWrites) / float64(ins.Ops) * IOCostSec
		row.InsertCPUSec = ins.CPUTime.Seconds() / float64(ins.Ops)
		row.InsertWallPerOp = ins.CPUTime / time.Duration(ins.Ops)

		for _, o := range objs {
			if err := t.Delete(o.ID); err != nil {
				return nil, err
			}
		}
		del := t.DeleteStats()
		row.DeleteIOCostSec = float64(del.PageReads+del.PageWrites) / float64(del.Ops) * IOCostSec
		row.DeleteCPUSec = del.CPUTime.Seconds() / float64(del.Ops)
		row.DeleteWallPerOp = del.CPUTime / time.Duration(del.Ops)
		rows = append(rows, row)
		fprintf(out, "%10s %14.4f %14.4f %16v %14.4f %14.4f %16v\n",
			name, row.InsertIOCostSec, row.InsertCPUSec, row.InsertWallPerOp,
			row.DeleteIOCostSec, row.DeleteCPUSec, row.DeleteWallPerOp)
	}
	return rows, nil
}
