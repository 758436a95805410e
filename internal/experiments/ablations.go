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
	// BuildWritesPerOp supports update-cost ablations.
	BuildWritesPerOp float64
}

// ablationWorkloads runs the standard (qs=1500, pq=0.6) workload against a
// configured tree.
func ablationWorkloads(t *core.Tree, objs []core.Object, cfg Config) (WorkloadMetrics, error) {
	w := workload.New(workload.Config{
		QS: 1500, PQ: 0.6, Count: cfg.Queries,
		Seed: cfg.Seed, Domain: dataset.Domain, Centers: centersOf(objs),
	})
	return runWorkload(t, w)
}

// ablationBuild constructs a tree over the LB dataset with the given
// options applied on top of the defaults.
func ablationBuild(cfg Config, name dataset.Name, mutate func(*core.Options)) (*core.Tree, []core.Object, error) {
	objs := dataset.Generate(dataset.Config{Name: name, Scale: cfg.Scale, Seed: cfg.Seed})
	opt := core.Options{
		Dim:         name.Dim(),
		Kind:        core.UTree,
		CatalogSize: 15,
	}
	mutate(&opt)
	t, err := core.New(opt)
	if err != nil {
		return nil, nil, err
	}
	for _, o := range objs {
		if err := t.Insert(o); err != nil {
			return nil, nil, err
		}
	}
	return t, objs, nil
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
		t, objs, err := ablationBuild(cfg, dataset.LB, func(o *core.Options) { o.SplitStrategy = v.strat })
		if err != nil {
			return nil, err
		}
		m, err := ablationWorkloads(t, objs, cfg)
		if err != nil {
			return nil, err
		}
		ins := t.InsertStats()
		points = append(points, AblationPoint{
			Label: v.label, Dataset: dataset.LB, Metrics: m,
			BuildWritesPerOp: float64(ins.PageWrites) / float64(ins.Ops),
		})
		fprintf(out, "%16s  io=%.1f cands=%.1f probs=%.1f cost=%.3fs buildWrites/op=%.2f\n",
			v.label, m.NodeAccesses, m.Candidates, m.ProbComps, m.TotalCostSec, points[len(points)-1].BuildWritesPerOp)
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
		t, objs, err := ablationBuild(cfg, dataset.LB, func(o *core.Options) { o.DisableReinsert = disable })
		if err != nil {
			return nil, err
		}
		m, err := ablationWorkloads(t, objs, cfg)
		if err != nil {
			return nil, err
		}
		ins := t.InsertStats()
		points = append(points, AblationPoint{
			Label: label, Dataset: dataset.LB, Metrics: m,
			BuildWritesPerOp: float64(ins.PageWrites) / float64(ins.Ops),
		})
		fprintf(out, "%20s  io=%.1f cost=%.3fs buildWrites/op=%.2f\n",
			label, m.NodeAccesses, m.TotalCostSec, points[len(points)-1].BuildWritesPerOp)
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
	for _, m := range mValues {
		t, objs, err := ablationBuild(cfg, dataset.LB, func(o *core.Options) { o.CatalogSize = m })
		if err != nil {
			return nil, err
		}
		wm, err := ablationWorkloads(t, objs, cfg)
		if err != nil {
			return nil, err
		}
		ins := t.InsertStats()
		cpuPerOp := ins.CPUTime.Seconds() / float64(ins.Ops)
		points = append(points, AblationPoint{
			Label: fmt.Sprintf("m=%d", m), Dataset: dataset.LB, Metrics: wm,
			BuildWritesPerOp: cpuPerOp,
		})
		fprintf(out, "%8s  io=%.1f cands=%.1f probs=%.1f cost=%.3fs insertCPU/op=%.4fs\n",
			points[len(points)-1].Label, wm.NodeAccesses, wm.Candidates, wm.ProbComps, wm.TotalCostSec, cpuPerOp)
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
		t, objs, err := buildTree(dataset.LB, kind, 9, cfg)
		if err != nil {
			return nil, err
		}
		m, err := ablationWorkloads(t, objs, cfg)
		if err != nil {
			return nil, err
		}
		pages, err := t.IndexPages()
		if err != nil {
			return nil, err
		}
		points = append(points, AblationPoint{
			Label: kind.String(), Dataset: dataset.LB, Metrics: m,
			BuildWritesPerOp: float64(pages),
		})
		fprintf(out, "%8v  io=%.1f cands=%.1f probs=%.1f cost=%.3fs pages=%d\n",
			kind, m.NodeAccesses, m.Candidates, m.ProbComps, m.TotalCostSec, pages)
	}
	return points, nil
}
