// Command e2ebench is the repository's one end-to-end benchmark: it builds
// each workload's index through the public uncertain constructors, drives
// it with a fixed, seeded list of operations from one goroutine, checks a
// sample of answers against exact probabilities, and prints every metric
// by name with its unit. See README.md in this directory.
//
//	go run ./cmd/e2ebench [-workload NAME] [-seed N] [-seconds S] [-trace 0|1|DIR] [-json FILE]
//	go run ./cmd/e2ebench compare A.json B.json
//	go run ./cmd/e2ebench calibrate [-runs K] [-sets N]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// resultFile is what -json writes and compare reads.
type resultFile struct {
	Schema  string    `json:"schema"`
	Results []*result `json:"results"`
}

const schema = "e2ebench/1"

// defaultWorkDir holds index files and calibrate's result files; run.sh
// builds into it too, and .gitignore names it.
const defaultWorkDir = ".bench_build"

// contractLine is the last line of a run's standard output, in the shape
// the benchmark driver reads.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "calibrate":
			os.Exit(calibrateMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("e2ebench", flag.ExitOnError)
	workload := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 42, "seed of the query order and the refinement sampler")
	seconds := fs.Float64("seconds", baseSeconds, "sizes the fixed operation counts: one workload takes about this long on the 2-core sandbox")
	trace := fs.String("trace", "0", "0: end-to-end metrics; 1: traced run, per-layer metrics; DIR: traced run that also writes DIR/<workload>.spans.jsonl")
	jsonOut := fs.String("json", "", "write the results to this file (input of compare)")
	workDir := fs.String("workdir", defaultWorkDir, "directory for the index files of file-backed workloads")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "e2ebench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "e2ebench: -seconds must be positive")
		return 2
	}
	opts := runOpts{seed: *seed, seconds: *seconds, workDir: *workDir}
	switch *trace {
	case "0", "":
	case "1":
		opts.trace = true
	default:
		opts.trace, opts.spansDir = true, *trace
	}
	run := specs
	if *workload != "all" {
		sp, ok := findSpec(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", *workload)
			return 2
		}
		run = []spec{sp}
	}

	// Closed loop, one client on the sandbox's two cores; the only other
	// goroutines are the ones the index starts itself.
	runtime.GOMAXPROCS(2)
	out := resultFile{Schema: schema}
	failed := false
	for _, sp := range run {
		res, err := runWorkload(sp, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
			return 1
		}
		out.Results = append(out.Results, res)
		printResult(res)
		failed = failed || !res.Correct
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, out); err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
			return 1
		}
	}
	if failed {
		return 1
	}
	return 0
}

// printResult prints one workload's metrics by name with their units,
// then the driver's result line: the end-to-end metrics of an untraced run,
// the per-layer metrics of a traced one. An untraced run prints its
// wall-clock timings too; they are ungated and not part of its result line.
func printResult(r *result) {
	kind, defs := "end-to-end", endToEndDefs
	if r.Traced {
		kind, defs = "per-layer (traced run)", perLayerDefs
	}
	fmt.Printf("== %s  seed=%d seconds=%g  %s\n", r.Workload, r.Seed, r.Seconds, kind)
	line := contractLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		fmt.Printf("  %-40s %14.6g %s\n", d.name, r.Metrics[d.name].Value, d.unit)
		line.Metrics[d.name] = r.Metrics[d.name]
	}
	if !r.Traced {
		for _, d := range timingDefs {
			fmt.Printf("  %-40s %14.6g %s (ungated)\n", d.name, r.Metrics[d.name].Value, d.unit)
		}
	}
	fmt.Printf("  operations attempted %d, failed %d; result_digest %s\n", r.Attempted, r.Failed, r.Digest)
	for _, f := range r.Failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
	data, err := json.Marshal(line)
	if err != nil {
		panic(err)
	}
	fmt.Println(string(data))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// benchmarkJSON is the part of BENCHMARK.json compare and calibrate need.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmarkJSON(path string) (*benchmarkJSON, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// worsening returns by what share of base the metric got worse going from
// base to v (negative when it improved).
func (m boundedMetric) worsening(base, v float64) float64 {
	if base == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (base - v) / base
	}
	return (v - base) / base
}
