package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// calibrateMain measures the benchmark's own steadiness. Per workload,
// -runs untraced runs with distinct seeds, each a fresh process as the
// driver's are, form a set. A metric's spread is (max−min)/median over a
// set; every end-to-end metric's spread must stay within its bound in
// every set, and no later set's median may be worse than the first's by
// more than the bound. The ungated timings are listed with their spread and
// no verdict. The table it prints is committed as CALIBRATION.md.
func calibrateMain(args []string) int {
	fs := flag.NewFlagSet("e2ebench calibrate", flag.ExitOnError)
	benchPath := fs.String("benchmark", "BENCHMARK.json", "the benchmark definition holding the bounds")
	runs := fs.Int("runs", 10, "runs per workload and set, each with its own seed")
	sets := fs.Int("sets", 2, "independent sets of runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *runs < 1 || *sets < 1 {
		fmt.Fprintln(os.Stderr, "e2ebench calibrate: -runs and -sets must be at least 1")
		return 2
	}
	def, err := loadBenchmarkJSON(*benchPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench calibrate: %v\n", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench calibrate: %v\n", err)
		return 2
	}
	if err := os.MkdirAll(defaultWorkDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench calibrate: %v\n", err)
		return 2
	}
	tmp, err := os.MkdirTemp(defaultWorkDir, "calibrate-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench calibrate: %v\n", err)
		return 2
	}
	defer os.RemoveAll(tmp)

	bad := 0
	fmt.Printf("%d set(s) of %d runs per workload, -seconds %d, seeds 1000·set+run.\n", *sets, *runs, baseSeconds)
	fmt.Println("min, median and max are the first set's; spread = (max−min)/median, the largest of any set;")
	fmt.Println("drift = by how much a later set's median is worse than the first's (negative: better).")
	for _, w := range def.Workloads {
		// values[set][metric] → one value per run
		values := make([]map[string][]float64, *sets)
		for s := range values {
			values[s] = map[string][]float64{}
			for r := 0; r < *runs; r++ {
				seed := 1000*(s+1) + r + 1
				res, err := runOnce(self, w.Name, seed, filepath.Join(tmp, "run.json"))
				if err != nil {
					fmt.Fprintf(os.Stderr, "e2ebench calibrate: %s seed %d: %v\n", w.Name, seed, err)
					return 1
				}
				if !res.Correct {
					fmt.Fprintf(os.Stderr, "e2ebench calibrate: %s seed %d: %d of %d operations failed\n", w.Name, seed, res.Failed, res.Attempted)
					bad++
				}
				for name, m := range res.Metrics {
					values[s][name] = append(values[s][name], m.Value)
				}
			}
		}
		// row prints one metric's line and returns its spread and drift.
		row := func(m boundedMetric) (spread, drift float64) {
			first := values[0][m.Name]
			med := median(first)
			drift = -1
			for s := range values {
				v := values[s][m.Name]
				spread = max(spread, ratio(percentile(v, 100)-percentile(v, 0), median(v)))
				if s > 0 {
					drift = max(drift, m.worsening(med, median(v)))
				}
			}
			fmt.Printf("| %s | %s | %.6g | %.6g | %.6g | %.2f%% |", m.Name, m.Unit, percentile(first, 0), med, percentile(first, 100), 100*spread)
			return spread, drift
		}
		fmt.Printf("\n### %s\n\n", w.Name)
		fmt.Println("| metric | unit | min | median | max | spread | bound | drift | verdict |")
		fmt.Println("|---|---|---|---|---|---|---|---|---|")
		for _, m := range def.EndToEnd {
			spread, drift := row(m)
			verdict := "ok"
			switch {
			case spread > m.Bound:
				verdict = "SPREAD > BOUND"
				bad++
			case drift > m.Bound:
				verdict = "DRIFT > BOUND"
				bad++
			}
			if *sets == 1 {
				fmt.Printf(" %.1f%% | – | %s |\n", 100*m.Bound, verdict)
			} else {
				fmt.Printf(" %.1f%% | %+.2f%% | %s |\n", 100*m.Bound, 100*drift, verdict)
			}
		}
		fmt.Println("\nUngated timings of the same runs:")
		fmt.Println("\n| metric | unit | min | median | max | spread |")
		fmt.Println("|---|---|---|---|---|---|")
		for _, m := range def.PerLayer {
			if _, ok := values[0][m.Name]; ok {
				row(m)
				fmt.Println()
			}
		}
	}
	if bad > 0 {
		fmt.Printf("\n%d check(s) failed\n", bad)
		return 1
	}
	fmt.Println("\nall checks passed")
	return 0
}

// runOnce runs one untraced workload in a child process and reads the
// result file it wrote.
func runOnce(self, workload string, seed int, jsonPath string) (*result, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.Itoa(seed), "-json", jsonPath)
	cmd.Stderr = os.Stderr
	// A run with failed operations exits 1 and still writes its results.
	runErr := cmd.Run()
	results, err := loadResults(jsonPath)
	if err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, err
	}
	if rmErr := os.Remove(jsonPath); rmErr != nil {
		return nil, rmErr
	}
	res := results[workload]
	if res == nil {
		return nil, fmt.Errorf("no result for %s in %s", workload, jsonPath)
	}
	return res, nil
}
