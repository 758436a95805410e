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
// Experiments: fig7, fig8, table1, fig9, fig10, fig11, ablations (the
// order of table below, which -experiment all runs) — the paper's
// evaluation and nothing else. Storage fault tolerance is held
// by tests (uncertain/fault_e2e_test.go), not by an experiment.
//
// -cpuprofile and -memprofile write pprof profiles covering the experiment
// run (the heap profile is taken at exit).
// At -scale 1 the datasets match the paper (53k/62k/100k objects); smaller
// scales preserve the qualitative shapes at a fraction of the runtime.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"repro/internal/experiments"
)

// table lists the experiments in the order -experiment all runs them.
var table = []struct {
	name string
	run  func(experiments.Config) error
}{
	{"fig7", func(c experiments.Config) error { _, err := experiments.Fig7(c, nil); return err }},
	{"fig8", func(c experiments.Config) error { _, err := experiments.Fig8(c, nil, nil); return err }},
	{"table1", func(c experiments.Config) error { _, err := experiments.Table1(c); return err }},
	{"fig9", func(c experiments.Config) error { _, err := experiments.Fig9(c, nil); return err }},
	{"fig10", func(c experiments.Config) error { _, err := experiments.Fig10(c, nil); return err }},
	{"fig11", func(c experiments.Config) error { _, err := experiments.Fig11(c); return err }},
	{"ablations", func(c experiments.Config) error { _, err := experiments.Ablations(c); return err }},
}

func main() {
	names := make([]string, 0, len(table)+1)
	for _, e := range table {
		names = append(names, e.name)
	}
	var (
		exp     = flag.String("experiment", "all", strings.Join(append(names, "all"), "|"))
		short   = flag.Bool("short", false, "shrink the dataset scale and query count for quick smoke runs")
		scale   = flag.Float64("scale", 0.05, "dataset scale (1.0 = paper size)")
		queries = flag.Int("queries", 0, "queries per workload (0 = default)")
		seed    = flag.Int64("seed", 42, "generator seed")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile covering the experiment run to this file")
		memProf = flag.String("memprofile", "", "write a heap profile taken after the experiment run to this file")
	)
	flag.Parse()
	if *exp != "all" && !slices.Contains(names, *exp) {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
	if *short {
		*scale = min(*scale, 0.02)
		if *queries == 0 {
			*queries = 16
		}
	}
	cfg := experiments.Config{Scale: *scale, Queries: *queries, Seed: *seed, Out: os.Stdout}

	fail := func(what string, err error) {
		fmt.Fprintf(os.Stderr, "%s: %v\n", what, err)
		pprof.StopCPUProfile()
		os.Exit(1)
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fail("-cpuprofile", err)
		}
	}
	for _, e := range table {
		if *exp != "all" && *exp != e.name {
			continue
		}
		start := time.Now()
		fmt.Printf("── %s ──────────────────────────────────────────\n", e.name)
		if err := e.run(cfg); err != nil {
			fail(e.name, err)
		}
		fmt.Printf("   (%s in %v)\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	pprof.StopCPUProfile() // no-op when -cpuprofile is off
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err == nil {
			runtime.GC() // materialize the final live set
			err = errors.Join(pprof.WriteHeapProfile(f), f.Close())
		}
		if err != nil {
			fail("-memprofile", err)
		}
	}
}
