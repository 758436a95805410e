package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// compareMain prints, per workload and end-to-end metric, both values, the
// relative change and a verdict against the bound in BENCHMARK.json. It
// returns 1 on any regression, any rise in the failed-operation share, and
// any workload or metric that one of the files lacks.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("e2ebench compare", flag.ExitOnError)
	benchPath := fs.String("benchmark", "BENCHMARK.json", "the benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: e2ebench compare [-benchmark BENCHMARK.json] A.json B.json")
		return 2
	}
	def, err := loadBenchmarkJSON(*benchPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench compare: %v\n", err)
		return 2
	}
	a, err := loadResults(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench compare: %v\n", err)
		return 2
	}
	b, err := loadResults(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench compare: %v\n", err)
		return 2
	}
	return compare(def, a, b)
}

func loadResults(path string) (map[string]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, schema)
	}
	out := map[string]*result{}
	for _, r := range f.Results {
		if r.Traced {
			continue // end-to-end metrics come from untraced runs only
		}
		out[r.Workload] = r
	}
	return out, nil
}

func compare(def *benchmarkJSON, a, b map[string]*result) int {
	regressed := 0
	for _, w := range def.Workloads {
		ra, rb := a[w.Name], b[w.Name]
		if ra == nil || rb == nil {
			fmt.Printf("== %s: MISSING from one of the files\n", w.Name)
			regressed++
			continue
		}
		fmt.Printf("== %s\n", w.Name)
		fmt.Printf("  %-24s %14s %14s %9s %7s  %s\n", "metric", "A", "B", "change", "bound", "verdict")
		for _, m := range def.EndToEnd {
			ma, okA := ra.Metrics[m.Name]
			mb, okB := rb.Metrics[m.Name]
			if !okA || !okB {
				fmt.Printf("  %-24s MISSING from one of the files\n", m.Name)
				regressed++
				continue
			}
			va, vb := ma.Value, mb.Value
			worse := m.worsening(va, vb)
			verdict := "PASS"
			switch {
			case worse > m.Bound:
				verdict = "REGRESSED"
				regressed++
			case worse < -m.Bound:
				verdict = "IMPROVED"
			}
			fmt.Printf("  %-24s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n",
				m.Name, va, vb, 100*ratio(vb-va, va), 100*m.Bound, verdict)
		}
		fa := ratio(float64(ra.Failed), float64(ra.Attempted))
		fb := ratio(float64(rb.Failed), float64(rb.Attempted))
		verdict := "PASS"
		if fb > fa {
			verdict = "REGRESSED"
			regressed++
		}
		fmt.Printf("  %-24s %14.6g %14.6g %26s  %s\n", "failed_share", fa, fb, "", verdict)
		if ra.Digest != rb.Digest {
			fmt.Printf("  result_digest differs: %s vs %s (answers changed; expected under Monte-Carlo refinement or another seed)\n", ra.Digest, rb.Digest)
		}
	}
	if regressed > 0 {
		fmt.Printf("%d regression(s)\n", regressed)
		return 1
	}
	return 0
}
