package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/workload"
)

// AblationPoint is one configuration's cost in an ablation study.
type AblationPoint struct {
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

// ablate builds a tree over the LB dataset with opt, one insert at a time,
// and runs the standard (qs=1500, pq=0.6) workload against it.
func ablate(cfg Config, label string, opt core.Options) (AblationPoint, error) {
	t, objs, ins, err := buildTree(dataset.LB, opt, cfg)
	if err != nil {
		return AblationPoint{}, err
	}
	w := workload.New(workload.Config{
		QS: 1500, PQ: 0.6, Count: cfg.Queries,
		Seed: cfg.Seed, Domain: dataset.Domain, Centers: centersOf(objs),
	})
	m, err := runWorkload(t, w)
	if err != nil {
		return AblationPoint{}, err
	}
	pages, err := t.IndexPages()
	if err != nil {
		return AblationPoint{}, err
	}
	return AblationPoint{
		Label: label, Dataset: dataset.LB, Metrics: m,
		InsertWritesPerOp: float64(ins.writes) / float64(ins.ops),
		InsertSecPerOp:    ins.secPerOp(),
		IndexPages:        pages,
	}, nil
}

// AblationSplit compares the paper's median-value split against the naive
// p=0 split and the exhaustive summed split.
func AblationSplit(cfg Config) ([]AblationPoint, error) {
	cfg = cfg.withDefaults()
	out := cfg.Out
	fprintf(out, "Ablation: split strategy (U-tree, LB, qs=1500, pq=0.6)\n")
	variants := []struct {
		label string
		strat core.SplitStrategy
	}{
		{"median (paper)", core.SplitMedian},
		{"p=0 only", core.SplitAtZero},
		{"summed (ideal)", core.SplitSummed},
	}
	var points []AblationPoint
	for _, v := range variants {
		p, err := ablate(cfg, v.label, core.Options{Kind: core.UTree, CatalogSize: 15, SplitStrategy: v.strat})
		if err != nil {
			return nil, err
		}
		points = append(points, p)
		m := p.Metrics
		fprintf(out, "%16s  io=%.1f cands=%.1f probs=%.1f cost=%.3fs buildWrites/op=%.2f\n",
			v.label, m.NodeAccesses, m.Candidates, m.ProbComps, m.TotalCostSec, p.InsertWritesPerOp)
	}
	return points, nil
}

// AblationReinsert compares forced reinsertion on/off.
func AblationReinsert(cfg Config) ([]AblationPoint, error) {
	cfg = cfg.withDefaults()
	out := cfg.Out
	fprintf(out, "Ablation: forced reinsertion (U-tree, LB, qs=1500, pq=0.6)\n")
	var points []AblationPoint
	for _, disable := range []bool{false, true} {
		label := "reinsert on (paper)"
		if disable {
			label = "reinsert off"
		}
		p, err := ablate(cfg, label, core.Options{Kind: core.UTree, CatalogSize: 15, DisableReinsert: disable})
		if err != nil {
			return nil, err
		}
		points = append(points, p)
		fprintf(out, "%20s  io=%.1f cost=%.3fs buildWrites/op=%.2f\n",
			label, p.Metrics.NodeAccesses, p.Metrics.TotalCostSec, p.InsertWritesPerOp)
	}
	return points, nil
}

// AblationCatalog sweeps the U-tree catalog size: Section 6.2 argues that a
// larger U-tree catalog only hurts update cost (entry size is independent
// of m), so query cost should flatten while insert CPU rises.
func AblationCatalog(cfg Config, mValues []int) ([]AblationPoint, error) {
	cfg = cfg.withDefaults()
	if len(mValues) == 0 {
		mValues = []int{5, 10, 15, 20}
	}
	out := cfg.Out
	fprintf(out, "Ablation: U-tree catalog size (LB, qs=1500, pq=0.6)\n")
	var points []AblationPoint
	for _, mv := range mValues {
		p, err := ablate(cfg, fmt.Sprintf("m=%d", mv), core.Options{Kind: core.UTree, CatalogSize: mv})
		if err != nil {
			return nil, err
		}
		points = append(points, p)
		m := p.Metrics
		fprintf(out, "%8s  io=%.1f cands=%.1f probs=%.1f cost=%.3fs insertCPU/op=%.4fs\n",
			p.Label, m.NodeAccesses, m.Candidates, m.ProbComps, m.TotalCostSec, p.InsertSecPerOp)
	}
	return points, nil
}

// AblationCFB isolates the CFB representation: U-tree (CFB entries, m=9)
// versus U-PCR (PCR entries, m=9) on identical data — the fanout-versus-
// tightness trade of Section 4.3 with the catalog held fixed.
func AblationCFB(cfg Config) ([]AblationPoint, error) {
	cfg = cfg.withDefaults()
	out := cfg.Out
	fprintf(out, "Ablation: CFB vs PCR entries at equal catalog (m=9, LB, qs=1500, pq=0.6)\n")
	var points []AblationPoint
	for _, kind := range []core.Kind{core.UTree, core.UPCR} {
		p, err := ablate(cfg, kind.String(), core.Options{Kind: kind, CatalogSize: 9})
		if err != nil {
			return nil, err
		}
		points = append(points, p)
		m := p.Metrics
		fprintf(out, "%8v  io=%.1f cands=%.1f probs=%.1f cost=%.3fs pages=%d\n",
			kind, m.NodeAccesses, m.Candidates, m.ProbComps, m.TotalCostSec, p.IndexPages)
	}
	return points, nil
}
