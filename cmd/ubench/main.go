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
//	ubench -experiment faultpath -short -iolat 1 -json out.json  # chaos-injection fault-tolerance check, CI size
//
// Experiments: fig7, fig8, table1, fig9, fig10, fig11, ablations, faultpath,
// all.
//
// -json writes the fault-path experiment's structured rows (per phase: q/s,
// slowdown against the clean phase, error and fault tallies) to a file.
//
// -cpuprofile and -memprofile write pprof profiles covering the experiment
// run (the heap profile is taken at exit).
// At -scale 1 the datasets match the paper (53k/62k/100k objects); smaller
// scales preserve the qualitative shapes at a fraction of the runtime.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/experiments"
)

// jsonReport is the machine-readable output of -json: the workload
// parameters plus the fault-path experiment's rows when it ran.
type jsonReport struct {
	Experiment  string
	Scale       float64
	Queries     int
	Seed        int64
	IOLatencyMS float64
	GOMAXPROCS  int

	FaultPath []experiments.FaultPathRow `json:",omitempty"`
}

func main() {
	var (
		exp      = flag.String("experiment", "all", "fig7|fig8|table1|fig9|fig10|fig11|ablations|faultpath|all")
		short    = flag.Bool("short", false, "shrink the dataset scale and query count for CI smoke runs")
		scale    = flag.Float64("scale", 0.05, "dataset scale (1.0 = paper size)")
		queries  = flag.Int("queries", 0, "queries per workload (0 = default)")
		samples  = flag.Int("mc", 0, "monte-carlo samples per probability (0 = default)")
		seed     = flag.Int64("seed", 42, "generator seed")
		iolatMS  = flag.Float64("iolat", 2, "per-page storage latency for -experiment faultpath, milliseconds (0 disables)")
		jsonPath = flag.String("json", "", "write the fault-path experiment's rows to this file")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile covering the experiment run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile taken after the experiment run to this file")
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
		IOLatency: time.Duration(*iolatMS * float64(time.Millisecond)),
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
	eff := cfg.WithDefaults()
	report := jsonReport{
		Experiment:  *exp,
		Scale:       eff.Scale,
		Queries:     eff.Queries,
		Seed:        eff.Seed,
		IOLatencyMS: *iolatMS,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	}
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
	if all || *exp == "faultpath" {
		run("faultpath", func() error {
			rows, err := experiments.FaultPath(cfg)
			report.FaultPath = rows
			return err
		})
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
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, report); err != nil {
			fmt.Fprintf(os.Stderr, "writing -json %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
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

// writeJSON persists the structured report.
func writeJSON(path string, report jsonReport) error {
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
