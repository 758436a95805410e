package experiments

import (
	"repro/internal/core"
	"repro/internal/dataset"
)

// Fig11Row is one dataset's update-cost breakdown (Figure 11).
type Fig11Row struct {
	Dataset dataset.Name
	// Per-insertion averages during index construction.
	InsertIOCostSec float64 // era model over logical node reads and writes
	InsertCPUSec    float64 // wall time (PCR computation + CFB fit + descent)
	// Per-deletion averages while draining the index.
	DeleteIOCostSec float64
	DeleteCPUSec    float64
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
	fprintf(out, "%10s %14s %14s %14s %14s\n",
		"dataset", "ins I/O(s)", "ins CPU(s)", "del I/O(s)", "del CPU(s)")
	for _, name := range dataset.All() {
		d := generate(name, cfg)
		t, ins, err := d.build(core.Options{Kind: core.UTree, CatalogSize: 15})
		if err != nil {
			return nil, err
		}
		del, err := measure(t, d.objs, func(o core.Object) error { return t.Delete(o.ID) })
		if err != nil {
			return nil, err
		}
		row := Fig11Row{
			Dataset:         name,
			InsertIOCostSec: ins.ioSecPerOp(), InsertCPUSec: ins.secPerOp(),
			DeleteIOCostSec: del.ioSecPerOp(), DeleteCPUSec: del.secPerOp(),
		}
		rows = append(rows, row)
		fprintf(out, "%10s %14.4f %14.6f %14.4f %14.6f\n",
			name, row.InsertIOCostSec, row.InsertCPUSec, row.DeleteIOCostSec, row.DeleteCPUSec)
	}
	return rows, nil
}
