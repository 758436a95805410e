package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
)

// AblationPoint is one variant's cost in an ablation study.
type AblationPoint struct {
	Study   string // split, reinsert, catalog or cfb
	Label   string
	Dataset dataset.Name
	Metrics WorkloadMetrics
	// InsertWritesPerOp and InsertSecPerOp are an insert's logical node
	// writes and wall time while the tree was built; IndexPages is the
	// built tree's node pages.
	InsertWritesPerOp float64
	InsertSecPerOp    float64
	IndexPages        int
}

// variant is one tree an ablation study builds: its label and the options
// of its LB tree.
type variant struct {
	label string
	opt   core.Options
}

// ablations are the studies Ablations runs, in print order: each its name,
// header, how it prints a variant, and its variants.
var ablations = []struct {
	study, header string
	row           func(AblationPoint) string
	variants      []variant
}{
	// The paper's median-value split against the naive p=0 split and the
	// exhaustive summed split.
	{"split", "split strategy (U-tree, LB, qs=1500, pq=0.6)", func(p AblationPoint) string {
		m := p.Metrics
		return fmt.Sprintf("%16s  io=%.1f cands=%.1f probs=%.1f cost=%.3fs buildWrites/op=%.2f",
			p.Label, m.NodeAccesses, m.Candidates, m.ProbComps, m.TotalCostSec, p.InsertWritesPerOp)
	}, []variant{
		{"median (paper)", core.Options{Kind: core.UTree, CatalogSize: 15, SplitStrategy: core.SplitMedian}},
		{"p=0 only", core.Options{Kind: core.UTree, CatalogSize: 15, SplitStrategy: core.SplitAtZero}},
		{"summed (ideal)", core.Options{Kind: core.UTree, CatalogSize: 15, SplitStrategy: core.SplitSummed}},
	}},
	{"reinsert", "forced reinsertion (U-tree, LB, qs=1500, pq=0.6)", func(p AblationPoint) string {
		return fmt.Sprintf("%20s  io=%.1f cost=%.3fs buildWrites/op=%.2f",
			p.Label, p.Metrics.NodeAccesses, p.Metrics.TotalCostSec, p.InsertWritesPerOp)
	}, []variant{
		{"reinsert on (paper)", core.Options{Kind: core.UTree, CatalogSize: 15}},
		{"reinsert off", core.Options{Kind: core.UTree, CatalogSize: 15, DisableReinsert: true}},
	}},
	// Section 6.2 argues that a larger U-tree catalog only hurts update
	// cost (entry size is independent of m), so query cost should flatten
	// while insert CPU rises.
	{"catalog", "U-tree catalog size (LB, qs=1500, pq=0.6)", func(p AblationPoint) string {
		m := p.Metrics
		return fmt.Sprintf("%8s  io=%.1f cands=%.1f probs=%.1f cost=%.3fs insertCPU/op=%.4fs",
			p.Label, m.NodeAccesses, m.Candidates, m.ProbComps, m.TotalCostSec, p.InsertSecPerOp)
	}, []variant{
		{"m=5", core.Options{Kind: core.UTree, CatalogSize: 5}},
		{"m=10", core.Options{Kind: core.UTree, CatalogSize: 10}},
		{"m=15", core.Options{Kind: core.UTree, CatalogSize: 15}},
		{"m=20", core.Options{Kind: core.UTree, CatalogSize: 20}},
	}},
	// CFB entries (U-tree) against PCR entries (U-PCR) on identical data:
	// the fanout-versus-tightness trade of Section 4.3 with the catalog
	// held fixed.
	{"cfb", "CFB vs PCR entries at equal catalog (m=9, LB, qs=1500, pq=0.6)", func(p AblationPoint) string {
		m := p.Metrics
		return fmt.Sprintf("%8s  io=%.1f cands=%.1f probs=%.1f cost=%.3fs pages=%d",
			p.Label, m.NodeAccesses, m.Candidates, m.ProbComps, m.TotalCostSec, p.IndexPages)
	}, []variant{
		{core.UTree.String(), core.Options{Kind: core.UTree, CatalogSize: 9}},
		{core.UPCR.String(), core.Options{Kind: core.UPCR, CatalogSize: 9}},
	}},
}

// Ablations builds every variant of ablations over one LB dataset, one
// insert at a time, and runs the same (qs=1500, pq=0.6) workload against
// each tree. It prints each study under its header.
func Ablations(cfg Config) ([]AblationPoint, error) {
	cfg = cfg.withDefaults()
	d := generate(dataset.LB, cfg)
	var points []AblationPoint
	for _, s := range ablations {
		fprintf(cfg.Out, "Ablation: %s\n", s.header)
		for _, v := range s.variants {
			t, ins, err := d.build(v.opt)
			if err != nil {
				return nil, err
			}
			m, err := d.runWorkload(t, 1500, 0.6, 0)
			if err != nil {
				return nil, err
			}
			pages, err := t.IndexPages()
			if err != nil {
				return nil, err
			}
			p := AblationPoint{
				Study: s.study, Label: v.label, Dataset: dataset.LB, Metrics: m,
				InsertWritesPerOp: float64(ins.writes) / float64(ins.ops),
				InsertSecPerOp:    ins.secPerOp(),
				IndexPages:        pages,
			}
			points = append(points, p)
			fprintf(cfg.Out, "%s\n", s.row(p))
		}
	}
	return points, nil
}
