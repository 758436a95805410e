package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"testing"
)

// raceDetector reports whether the test binary was built with -race.
func raceDetector() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" && s.Value == "true" {
			return true
		}
	}
	return false
}

// smokeOpts runs a workload at 1/20 of its operation counts over a dataset
// of 1/50 the size.
func smokeOpts(t *testing.T) runOpts {
	return runOpts{seed: 7, seconds: baseSeconds / 20.0, scaleMul: 0.02, workDir: t.TempDir()}
}

func mustRun(t *testing.T, sp spec, o runOpts) *result {
	t.Helper()
	res, err := runWorkload(sp, o)
	if err != nil {
		t.Fatalf("%s: %v", sp.name, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: attempted %d, failed %d: %v", sp.name, res.Attempted, res.Failed, res.Failures)
	}
	return res
}

// checkMetrics checks that the run reports every metric BENCHMARK.json
// declares for its kind, with the declared unit, and none it does not
// declare (an untraced run also carries the ungated timings).
func checkMetrics(t *testing.T, res *result, want []boundedMetric) {
	t.Helper()
	extra := 0
	if !res.Traced {
		extra = len(timingDefs)
	}
	if len(res.Metrics) != len(want)+extra {
		t.Errorf("%s: %d metrics reported, BENCHMARK.json declares %d", res.Workload, len(res.Metrics)-extra, len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", res.Workload, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", res.Workload, m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s: metric %s = %v", res.Workload, m.Name, got.Value)
		}
	}
}

// TestSmoke runs every workload small, untraced and traced, and checks the
// output against BENCHMARK.json, the repeatability of the counts and the
// shape of the spans.
func TestSmoke(t *testing.T) {
	def, err := loadBenchmarkJSON(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(def.Workloads), len(specs))
	}
	for i, sp := range specs {
		if def.Workloads[i].Name != sp.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, def.Workloads[i].Name, sp.name)
		}
		sp := sp
		t.Run(sp.name, func(t *testing.T) {
			// Loading by Insert makes the page layout, and so every count,
			// a pure function of the inputs (BulkLoad iterates a map).
			o := smokeOpts(t)
			o.insertLoad = true
			a, b := mustRun(t, sp, o), mustRun(t, sp, o)
			checkMetrics(t, a, def.EndToEnd)
			for _, m := range def.EndToEnd {
				if v := a.Metrics[m.Name].Value; v <= 0 {
					t.Errorf("end-to-end metric %s = %v, must be positive", m.Name, v)
				}
			}
			for _, name := range []string{"io_per_query", "prob_comps_per_query", "write_bytes_per_update", "bytes_per_object"} {
				if va, vb := a.Metrics[name].Value, b.Metrics[name].Value; va != vb {
					t.Errorf("%s differs between two runs of the same inputs: %v vs %v", name, va, vb)
				}
			}
			if a.Digest != b.Digest {
				t.Errorf("result_digest differs between two runs of the same inputs: %s vs %s", a.Digest, b.Digest)
			}

			// A traced run ends with QueryEngine.SearchBatch on two workers.
			// With AdaptivePlanning two queries on one shard race in product
			// code (core.Planner.observe calibrates the CostModel that
			// planQuery reads): a product follow-up this benchmark may not
			// fix, so under the race detector that traced run is left out.
			if sp.config.AdaptivePlanning && raceDetector() {
				t.Log("traced run skipped under -race: data race in core.Planner (product follow-up)")
				return
			}
			o = smokeOpts(t)
			o.trace, o.spansDir = true, t.TempDir()
			checkMetrics(t, mustRun(t, sp, o), def.PerLayer)
			checkSpans(t, filepath.Join(o.spansDir, sp.name+".spans.jsonl"), sp.shards > 1)
		})
	}
}

// checkSpans verifies the span file: every child names a root span of the
// same operation and lies inside it, and an operation's self time plus its
// children's time adds up to its root span (within 1 %, and only where one
// goroutine does the work — shard searches overlap).
func checkSpans(t *testing.T, path string, overlapping bool) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	roots := map[int]spanRecord{}
	children := map[int][]storeSpan{}
	layers := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s spanRecord
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		layers[s.Layer]++
		if s.End < s.Start {
			t.Fatalf("span %d ends before it starts", s.ID)
		}
		if s.Parent == 0 {
			roots[s.ID] = s
			continue
		}
		root, ok := roots[s.Parent]
		if !ok {
			t.Fatalf("span %d: parent %d is not a root span written before it", s.ID, s.Parent)
		}
		if s.Start < root.Start || s.End > root.End {
			t.Errorf("span %d [%d,%d] leaves its parent %d [%d,%d]", s.ID, s.Start, s.End, root.ID, root.Start, root.End)
		}
		if s.Phase != root.Phase || s.Pass != root.Pass || s.Op != root.Op {
			t.Errorf("span %d belongs to another operation than its parent %d", s.ID, root.ID)
		}
		children[s.Parent] = append(children[s.Parent], storeSpan{start: s.Start, end: s.End})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if layers[layerUncertain] == 0 || layers[layerPagefile] == 0 {
		t.Fatalf("span counts by layer: %v, want both layers", layers)
	}
	if overlapping {
		return
	}
	for id, root := range roots {
		dur := root.End - root.Start
		var childSum int64
		for _, c := range children[id] {
			childSum += c.end - c.start
		}
		self := dur - covered(children[id])
		if diff := math.Abs(float64(self + childSum - dur)); diff > 0.01*float64(dur) {
			t.Errorf("root span %d: self %d + children %d ≠ duration %d", id, self, childSum, dur)
		}
		if core := root.FilterNS + root.RefineNS; core > dur {
			t.Errorf("root span %d: core filter+refine %d ns exceeds the call's %d ns", id, core, dur)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	def := &benchmarkJSON{
		Workloads: []struct {
			Name string `json:"name"`
		}{{Name: "w"}},
		EndToEnd: []boundedMetric{
			{Name: "query_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
			{Name: "io_per_query", Unit: "pages", Better: "lower", Bound: 0.02},
		},
	}
	side := func(qps, io float64, failed int) map[string]*result {
		return map[string]*result{"w": {Workload: "w", Attempted: 100, Failed: failed, Metrics: map[string]metric{
			"query_per_s": {Value: qps, Unit: "1/s"}, "io_per_query": {Value: io, Unit: "pages"},
		}}}
	}
	base := side(100, 50, 0)
	noMetric := side(100, 50, 0)
	delete(noMetric["w"].Metrics, "io_per_query")
	for _, tc := range []struct {
		name string
		b    map[string]*result
		want int
	}{
		{"within bounds", side(95, 50.5, 0), 0},
		{"improved", side(150, 40, 0), 0},
		{"throughput regressed", side(85, 50, 0), 1},
		{"count regressed", side(100, 51.5, 0), 1},
		{"more failures", side(100, 50, 1), 1},
		{"workload missing", map[string]*result{}, 1},
		{"metric missing", noMetric, 1},
	} {
		if got := compare(def, base, tc.b); got != tc.want {
			t.Errorf("%s: compare returned %d, want %d", tc.name, got, tc.want)
		}
	}
}
