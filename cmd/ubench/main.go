// Command ubench reproduces the tables and figures of the U-tree paper's
// evaluation (Section 6). Each experiment prints the same rows/series the
// paper reports.
//
// Usage:
//
//	ubench -experiment all                    # everything, scaled down
//	ubench -experiment fig9 -scale 0.1        # one figure, 10% data scale
//	ubench -experiment table1 -scale 1        # paper-scale dataset sizes
//	ubench -experiment ablations
//
// Experiments: fig7, fig8, table1, fig9, fig10, fig11, ablations, all —
// the paper's evaluation and nothing else. Storage fault tolerance is held
// by tests (uncertain/fault_e2e_test.go), not by an experiment.
//
// -cpuprofile and -memprofile write pprof profiles covering the experiment
// run (the heap profile is taken at exit).
// At -scale 1 the datasets match the paper (53k/62k/100k objects); smaller
// scales preserve the qualitative shapes at a fraction of the runtime.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("experiment", "all", "fig7|fig8|table1|fig9|fig10|fig11|ablations|all")
		short   = flag.Bool("short", false, "shrink the dataset scale and query count for quick smoke runs")
		scale   = flag.Float64("scale", 0.05, "dataset scale (1.0 = paper size)")
		queries = flag.Int("queries", 0, "queries per workload (0 = default)")
		samples = flag.Int("mc", 0, "monte-carlo samples per probability (0 = default)")
		seed    = flag.Int64("seed", 42, "generator seed")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile covering the experiment run to this file")
		memProf = flag.String("memprofile", "", "write a heap profile taken after the experiment run to this file")
	)
	flag.Parse()

	if *short {
		if *scale > 0.02 {
			*scale = 0.02
		}
		if *queries == 0 {
			*queries = 16
		}
	}

	cfg := experiments.Config{
		Scale:     *scale,
		Queries:   *queries,
		MCSamples: *samples,
		Seed:      *seed,
		Out:       os.Stdout,
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "-cpuprofile: %v\n", err)
			os.Exit(1)
		}
	}

	run := func(name string, fn func() error) {
		start := time.Now()
		fmt.Printf("── %s ──────────────────────────────────────────\n", name)
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			pprof.StopCPUProfile()
			os.Exit(1)
		}
		fmt.Printf("   (%s in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	all := *exp == "all"
	ran := false
	if all || *exp == "fig7" {
		run("fig7", func() error { _, err := experiments.Fig7(cfg, nil); return err })
		ran = true
	}
	if all || *exp == "fig8" {
		run("fig8", func() error { _, err := experiments.Fig8(cfg, nil, nil); return err })
		ran = true
	}
	if all || *exp == "table1" {
		run("table1", func() error { _, err := experiments.Table1(cfg); return err })
		ran = true
	}
	if all || *exp == "fig9" {
		run("fig9", func() error { _, err := experiments.Fig9(cfg, nil); return err })
		ran = true
	}
	if all || *exp == "fig10" {
		run("fig10", func() error { _, err := experiments.Fig10(cfg, nil); return err })
		ran = true
	}
	if all || *exp == "fig11" {
		run("fig11", func() error { _, err := experiments.Fig11(cfg); return err })
		ran = true
	}
	if all || *exp == "ablations" {
		run("ablation-split", func() error { _, err := experiments.AblationSplit(cfg); return err })
		run("ablation-reinsert", func() error { _, err := experiments.AblationReinsert(cfg); return err })
		run("ablation-catalog", func() error { _, err := experiments.AblationCatalog(cfg, nil); return err })
		run("ablation-cfb", func() error { _, err := experiments.AblationCFB(cfg); return err })
		ran = true
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
	pprof.StopCPUProfile() // no-op when -cpuprofile is off
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-memprofile: %v\n", err)
			os.Exit(1)
		}
		runtime.GC() // materialize the final live set
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "-memprofile: %v\n", err)
			os.Exit(1)
		}
		f.Close()
	}
}
