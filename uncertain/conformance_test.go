package uncertain

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pagefile"
	"repro/internal/updf"
)

// This file is the Index conformance contract: whatever constructor built
// the index, range and k-NN answers equal a brute-force scan that shares
// none of the index's filtering — range answers exactly, whatever the
// k-NN sample count. It also pins what the single tree type promises on
// top: a reopened file serves lock-free readers beside its writer, answers
// do not depend on query order, and a sharded k-NN query reads its shards
// one at a time, nearest first, skipping those its merged k-th distance
// rules out.

const (
	conformanceSamples = 1500
	// conformanceCoarseSamples is the k-NN sample count of the mc=true
	// subtests: a coarse sampler, which range answers must not notice.
	conformanceCoarseSamples = 100
	conformanceSpan          = 1000.0
)

// conformancePDF builds the n-th object's pdf, cycling through every updf
// family so the filter's validations are checked on symmetric, skewed,
// arbitrary, polygonal and bimodal densities alike.
func conformancePDF(n int, rng *rand.Rand) PDF {
	c := Pt(rng.Float64()*conformanceSpan, rng.Float64()*conformanceSpan)
	r := 5 + rng.Float64()*20
	box := Box(Pt(c[0]-r, c[1]-0.7*r), Pt(c[0]+r, c[1]+0.7*r))
	switch n % 8 {
	case 0:
		return UniformCircle(c, r)
	case 1:
		return UniformBox(box)
	case 2:
		// One shape for all, as in the paper's CA dataset: Con-Gau
		// quantiles are a quadrature rule inside a bisection, computed once
		// per shape.
		return ConstrainedGaussian(c, 15, 7.5)
	case 3:
		return TruncatedGaussianBox(box, Pt(c[0]-0.2*r, c[1]+0.1*r), []float64{0.7 * r, 0.5 * r})
	case 4:
		return ExponentialBox(box, []float64{0.75 / r, 0.5 / (1.4 * r)})
	case 5:
		w := make([]float64, 12)
		for i := range w {
			w[i] = 0.4 + 0.6*rng.Float64()
		}
		return Histogram(box, []int{4, 3}, w)
	case 6:
		return UniformPolygon([]Point{{c[0] - r, c[1] - 0.4*r}, {c[0] + 0.6*r, c[1] - r}, {c[0] + r, c[1] + 0.5*r}, {c[0] - 0.3*r, c[1] + r}})
	default:
		return MixturePDF([]PDF{UniformCircle(Pt(c[0]-0.3*r, c[1]), 0.7*r), UniformBox(box)}, []float64{2, 1})
	}
}

// conformanceLoad fills idx through every mutation path — bulk load,
// insert, delete — and returns the objects left in it.
func conformanceLoad(t *testing.T, idx Index) []core.Object {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	n := 0
	pdf := func() PDF {
		n++
		return conformancePDF(n, rng)
	}
	all := make(map[int64]PDF)
	bulk := make(map[int64]PDF)
	for id := int64(0); id < 300; id++ {
		bulk[id] = pdf()
		all[id] = bulk[id]
	}
	if err := idx.BulkLoad(bulk); err != nil {
		t.Fatal(err)
	}
	for id := int64(300); id < 330; id++ {
		all[id] = pdf()
		if err := idx.Insert(id, all[id]); err != nil {
			t.Fatal(err)
		}
	}
	for id := int64(0); id < 300; id += 25 {
		if err := idx.Delete(id); err != nil {
			t.Fatal(err)
		}
		delete(all, id)
	}
	objs := make([]core.Object, 0, len(all))
	for id, p := range all {
		objs = append(objs, core.Object{ID: id, PDF: p})
	}
	sort.Slice(objs, func(a, b int) bool { return objs[a].ID < objs[b].ID })
	return objs
}

// checkRangeConformance compares one range answer with the exact
// probabilities of every object: a refined probability must equal it, and
// no object at or above the threshold is missing or one below it reported.
func checkRangeConformance(t *testing.T, label string, q RangeQuery, got []Result, exact map[int64]float64) {
	t.Helper()
	seen := make(map[int64]bool, len(got))
	for _, r := range got {
		p, ok := exact[r.ID]
		if !ok {
			t.Fatalf("%s: result %d is not in the index", label, r.ID)
		}
		if seen[r.ID] {
			t.Fatalf("%s: result %d reported twice", label, r.ID)
		}
		seen[r.ID] = true
		switch {
		case r.Validated:
			if p < q.Prob-1e-9 {
				t.Fatalf("%s: object %d validated at p=%g below threshold %g", label, r.ID, p, q.Prob)
			}
		case r.Prob != p:
			t.Fatalf("%s: object %d refined to %g, exact %g", label, r.ID, r.Prob, p)
		case p < q.Prob:
			t.Fatalf("%s: false hit %d: exact p=%g, threshold %g", label, r.ID, p, q.Prob)
		}
	}
	for id, p := range exact {
		if p >= q.Prob && p > 0 && !seen[id] {
			t.Fatalf("%s: false dismissal of %d: exact p=%g, threshold %g", label, id, p, q.Prob)
		}
	}
}

// bruteForceNN is the k-NN oracle: every object's expected distance (the
// same per-object-seeded estimator the index refines with, so values match
// to rounding), sorted by (distance, ID).
func bruteForceNN(objs []core.Object, q Point, k, samples int) []Neighbor {
	all := make([]Neighbor, len(objs))
	for i, o := range objs {
		all[i] = Neighbor{ID: o.ID, ExpectedDist: core.ExpectedDistance(o.PDF, q, samples, o.ID)}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].ExpectedDist != all[b].ExpectedDist {
			return all[a].ExpectedDist < all[b].ExpectedDist
		}
		return all[a].ID < all[b].ID
	})
	return all[:k]
}

func TestIndexConformance(t *testing.T) {
	domain := Box(Pt(0, 0), Pt(conformanceSpan, conformanceSpan))
	builders := []struct {
		name  string
		build func(t *testing.T, cfg Config) (Index, []core.Object)
	}{
		{"tree", func(t *testing.T, cfg Config) (Index, []core.Object) {
			idx, err := NewTree(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return idx, conformanceLoad(t, idx)
		}},
		{"upcr", func(t *testing.T, cfg Config) (Index, []core.Object) {
			idx, err := OpenTree(newUPCRFile(t, cfg.Dimensions), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if kind := idx.inner.Kind(); kind != core.UPCR {
				t.Fatalf("a U-PCR file opens as a %v", kind)
			}
			return idx, conformanceLoad(t, idx)
		}},
		{"reopened", func(t *testing.T, cfg Config) (Index, []core.Object) {
			cfg.Path = filepath.Join(t.TempDir(), "conformance.utree")
			built, err := NewTree(cfg)
			if err != nil {
				t.Fatal(err)
			}
			objs := conformanceLoad(t, built)
			if err := built.Close(); err != nil {
				t.Fatal(err)
			}
			idx, err := OpenTree(cfg.Path, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return idx, objs
		}},
		{"sharded-1", func(t *testing.T, cfg Config) (Index, []core.Object) {
			idx, err := NewSpatialShardedTree(1, cfg, domain)
			if err != nil {
				t.Fatal(err)
			}
			return idx, conformanceLoad(t, idx)
		}},
		{"sharded-3", func(t *testing.T, cfg Config) (Index, []core.Object) {
			// A domain narrower than the data: the edge slabs also take
			// every object whose center lies outside it.
			idx, err := NewSpatialShardedTree(3, cfg, Box(Pt(300, 0), Pt(700, conformanceSpan)))
			if err != nil {
				t.Fatal(err)
			}
			return idx, conformanceLoad(t, idx)
		}},
		{"spatial-3", func(t *testing.T, cfg Config) (Index, []core.Object) {
			idx, err := NewSpatialShardedTree(3, cfg, domain)
			if err != nil {
				t.Fatal(err)
			}
			return idx, conformanceLoad(t, idx)
		}},
	}
	// Large squares for the leaf filter, small ones that clip objects at
	// their corners for the refinement stage behind it.
	queries := append(shardedFixtureQueries(16, 32), latticeFixtureQueries(6, 20, 0.3)...)
	points := []Point{Pt(500, 500), Pt(40, 960), Pt(-50, 300)}
	const k = 7

	// The oracle depends on the objects only, and every builder loads the
	// same ones: compute it once, the k-NN half per sample count.
	var exact []map[int64]float64
	wantNN := map[int][][]Neighbor{}
	oracle := func(objs []core.Object) {
		if exact != nil {
			return
		}
		scan := core.NewScan(objs, 9)
		for _, q := range queries {
			probs := make(map[int64]float64, len(objs))
			for _, o := range objs {
				probs[o.ID] = 0
			}
			// Prob > 0 only: BruteForce reports p ≥ threshold.
			for _, r := range scan.BruteForce(core.Query{Rect: q.Rect, Prob: math.SmallestNonzeroFloat64}) {
				probs[r.ID] = r.Prob
			}
			exact = append(exact, probs)
		}
		for _, n := range []int{conformanceSamples, conformanceCoarseSamples} {
			for _, pt := range points {
				wantNN[n] = append(wantNN[n], bruteForceNN(objs, pt, k, n))
			}
		}
	}

	for _, b := range builders {
		for _, mc := range []bool{false, true} {
			name := fmt.Sprintf("%s/mc=%v", b.name, mc)
			samples := conformanceSamples
			if mc {
				samples = conformanceCoarseSamples
			}
			t.Run(name, func(t *testing.T) {
				idx, objs := b.build(t, Config{Dimensions: 2, MonteCarloSamples: samples})
				defer idx.Close()
				oracle(objs)
				if idx.Len() != len(objs) {
					t.Fatalf("Len = %d, want %d", idx.Len(), len(objs))
				}
				if err := idx.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				var total Stats
				for i, q := range queries {
					got, stats, err := idx.Search(context.Background(), q.Rect, q.Prob)
					if err != nil {
						t.Fatal(err)
					}
					checkRangeConformance(t, fmt.Sprintf("query %d", i), q, got, exact[i])
					// The answer is the brute-force set, whichever stage
					// decided each object.
					want := 0
					for _, p := range exact[i] {
						if p >= q.Prob {
							want++
						}
					}
					if len(got) != want {
						t.Fatalf("query %d: %d results, brute force %d", i, len(got), want)
					}
					// Every candidate is decided on its marginals or integrated.
					if decided := stats.MarginalValidated + stats.MarginalPruned + stats.ProbComputations; stats.Candidates != decided {
						t.Fatalf("query %d: %d candidates, %d accounted for (%+v)", i, stats.Candidates, decided, stats)
					}
					total.Add(stats)
				}
				// ShapeDecided: the fixture's Con-Gau objects share one shape.
				if total.MarginalValidated == 0 || total.MarginalPruned == 0 || total.ProbComputations == 0 || total.ShapeDecided == 0 {
					t.Fatalf("workload leaves a refinement outcome unexercised: %+v", total)
				}
				for i, pt := range points {
					got, _, err := idx.NearestNeighbors(context.Background(), pt, k)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != k {
						t.Fatalf("NN %d: %d neighbors, want %d", i, len(got), k)
					}
					for j := range got {
						// The index refines the pdf decoded from its record,
						// whose derived fields (a histogram's renormalized
						// weights) may differ from the oracle's in the last
						// bits.
						want := wantNN[samples][i][j]
						if got[j].ID != want.ID || math.Abs(got[j].ExpectedDist-want.ExpectedDist) > 1e-9*want.ExpectedDist {
							t.Fatalf("NN %d neighbor %d: %+v, brute force %+v", i, j, got[j], want)
						}
					}
				}
			})
		}
	}
}

// TestOpenTreeConcurrentReaders: a reopened file is the same
// snapshot-isolated tree a fresh one is — readers search it lock-free
// while a writer mutates it. Run with -race.
func TestOpenTreeConcurrentReaders(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reopen.utree")
	cfg := Config{Dimensions: 2, Path: path}
	built, err := NewTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := built.BulkLoad(shardedFixtureObjects(300, 41)); err != nil {
		t.Fatal(err)
	}
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}
	tree, err := OpenTree(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()

	stop := make(chan struct{})
	var writer sync.WaitGroup
	var writeErr error
	writer.Add(1)
	go func() {
		defer writer.Done()
		rng := rand.New(rand.NewSource(42))
		for id := int64(10_000); ; id++ {
			select {
			case <-stop:
				return
			default:
			}
			if writeErr = tree.Insert(id, batchPDF(rng)); writeErr != nil {
				return
			}
			if id%3 == 0 {
				if writeErr = tree.Delete(id); writeErr != nil {
					return
				}
			}
		}
	}()

	queries := shardedFixtureQueries(30, 43)
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := range queries {
				q := queries[(i+r)%len(queries)]
				res, _, err := tree.Search(context.Background(), q.Rect, q.Prob)
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				for _, item := range res {
					if !item.Validated && item.Prob < q.Prob {
						t.Errorf("reader %d: result %d below threshold (p=%g)", r, item.ID, item.Prob)
						return
					}
				}
				if _, _, err := tree.NearestNeighbors(context.Background(), q.Rect.Lo, 3); err != nil {
					t.Errorf("reader %d NN: %v", r, err)
					return
				}
			}
		}(r)
	}
	readers.Wait()
	close(stop)
	writer.Wait()
	if writeErr != nil {
		t.Fatal(writeErr)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMonteCarloIndependentOfQueryOrder: on a tree configured with a
// Monte-Carlo sample count, the same queries issued forwards and backwards
// return bit-identical probabilities — refinement keeps no state between
// queries.
func TestMonteCarloIndependentOfQueryOrder(t *testing.T) {
	tree, err := NewTree(Config{Dimensions: 2, MonteCarloSamples: 300})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	objects := shardedFixtureObjects(300, 51)
	if err := tree.BulkLoad(objects); err != nil {
		t.Fatal(err)
	}
	queries := append(shardedFixtureQueries(20, 52), latticeFixtureQueries(12, 20, 0.3)...)
	queries = append(queries, cornerFixtureQueries(objects, 20)...)
	forward := searchInOrder(t, tree, queries)
	refined := 0
	for i := len(queries) - 1; i >= 0; i-- {
		got, _, err := tree.Search(context.Background(), queries[i].Rect, queries[i].Prob)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResults(t, "reversed", forward[i:i+1], [][]Result{got})
		for _, r := range got {
			if !r.Validated {
				refined++
			}
		}
	}
	if refined == 0 {
		t.Fatal("degenerate workload: no result went through refinement")
	}
}

// samplerConfigPDF builds the n-th object of TestRangeRefinementIgnoresSamplerConfig:
// the 2-D objects cycle through all eight families, the 3-D ones through
// the seven that have a 3-D form (a polygon is 2-D).
func samplerConfigPDF(dim, n int, rng *rand.Rand) PDF {
	if dim == 2 {
		return conformancePDF(n, rng)
	}
	const span = 400.0
	c := Pt(rng.Float64()*span, rng.Float64()*span, rng.Float64()*span)
	r := 10 + rng.Float64()*20
	box := Box(Pt(c[0]-r, c[1]-0.7*r, c[2]-0.5*r), Pt(c[0]+r, c[1]+0.7*r, c[2]+0.5*r))
	switch n % 7 {
	case 0:
		return UniformCircle(c, r)
	case 1:
		return UniformBox(box)
	case 2:
		return ConstrainedGaussian(c, 20, 10)
	case 3:
		return TruncatedGaussianBox(box, Pt(c[0]-0.2*r, c[1]+0.1*r, c[2]), []float64{0.7 * r, 0.5 * r, 0.4 * r})
	case 4:
		return ExponentialBox(box, []float64{0.75 / r, 0.5 / r, 1 / r})
	case 5:
		w := make([]float64, 12)
		for i := range w {
			w[i] = 0.4 + 0.6*rng.Float64()
		}
		return Histogram(box, []int{3, 2, 2}, w)
	default:
		return MixturePDF([]PDF{UniformCircle(Pt(c[0]-0.3*r, c[1], c[2]), 0.7*r), UniformBox(box)}, []float64{2, 1})
	}
}

// TestRangeRefinementIgnoresSamplerConfig: range refinement is Equation 2.
// Trees over the same objects whose Config differs only in the sampler
// fields — MonteCarloSamples, Seed and the deprecated ExactRefinement —
// return identical answers, and every refined Prob is the object's
// ExactProb over the query rectangle, bit for bit.
func TestRangeRefinementIgnoresSamplerConfig(t *testing.T) {
	configs := []Config{
		{},
		{MonteCarloSamples: 100, Seed: 7},
		{ExactRefinement: true, Seed: 1},
		{MonteCarloSamples: 100, ExactRefinement: true, Seed: 7},
	}
	for _, dim := range []int{2, 3} {
		t.Run(fmt.Sprintf("%dd", dim), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(60 + dim)))
			objects := make(map[int64]PDF)
			for id := int64(0); id < 700; id++ {
				objects[id] = samplerConfigPDF(dim, int(id), rng)
			}
			// Query i cuts object i on every axis at a threshold just under
			// its probability, where the marginal bounds seldom decide it:
			// ids 0–39 cycle through the families.
			queries := make([]RangeQuery, 40)
			for i := range queries {
				p := objects[int64(i)]
				m := p.MBR()
				lo, hi := make(Point, dim), make(Point, dim)
				for d := range lo {
					w := m.Hi[d] - m.Lo[d]
					lo[d], hi[d] = m.Lo[d]-w, m.Lo[d]+w*(0.4+0.3*rng.Float64())
				}
				rect := Box(lo, hi)
				queries[i] = RangeQuery{Rect: rect, Prob: math.Max(p.ExactProb(rect)-0.002, 0.01)}
			}
			var want [][]Result
			refined := map[string]int{}
			for ci, cfg := range configs {
				cfg.Dimensions = dim
				tree, err := NewTree(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := tree.BulkLoad(objects); err != nil {
					t.Fatal(err)
				}
				got := searchInOrder(t, tree, queries)
				tree.Close()
				if ci > 0 {
					requireSameResults(t, fmt.Sprintf("config %+v:", cfg), want, got)
					continue
				}
				want = got
				for i, res := range got {
					for _, r := range res {
						if r.Validated {
							continue
						}
						p := objects[r.ID]
						if exact := p.ExactProb(queries[i].Rect); r.Prob != exact {
							t.Fatalf("query %d: object %d (%T) refined to %v, ExactProb %v", i, r.ID, p, r.Prob, exact)
						}
						refined[fmt.Sprintf("%T", p)]++
					}
				}
			}
			if families := 10 - dim; len(refined) != families {
				t.Fatalf("refined results per family %v, want all %d families", refined, families)
			}
		})
	}
}

// newUPCRFile writes an empty U-PCR index file the way the paper's
// experiments, or a release that still built one, left it: through core,
// with the metadata page where OpenTree reads it. OpenTree is how the
// public API reaches a U-PCR tree; it takes the variant from the file.
func newUPCRFile(t *testing.T, dim int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "upcr.utree")
	fs, err := pagefile.CreateFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := core.New(core.Options{Dim: dim, Kind: core.UPCR, Store: fs, Persist: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := inner.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestOpenTreeConfigMismatch: structural Config fields are taken from the
// file when zero and must agree with it when set.
func TestOpenTreeConfigMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mismatch.utree")
	built, err := NewTree(Config{Dimensions: 2, CatalogSize: 6, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]Config{
		"Dimensions":  {Dimensions: 3},
		"CatalogSize": {CatalogSize: 9},
	} {
		if tree, err := OpenTree(path, cfg); !errors.Is(err, ErrConfigMismatch) {
			if err == nil {
				tree.Close()
			}
			t.Fatalf("conflicting %s: err = %v, want ErrConfigMismatch", name, err)
		}
	}
	for name, cfg := range map[string]Config{
		"zero":     {},
		"matching": {Dimensions: 2, CatalogSize: 6},
	} {
		tree, err := OpenTree(path, cfg)
		if err != nil {
			t.Fatalf("%s config: %v", name, err)
		}
		if err := tree.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenTreeRefusesOldLayout: a file whose metadata page carries the
// previous layout's magic ("UTR1", float64 CFB coefficients) is refused
// with ErrOldLayout before any node is decoded.
func TestOpenTreeRefusesOldLayout(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.utree")
	built, err := NewTree(Config{Dimensions: 2, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := built.Insert(1, UniformCircle(Pt(100, 100), 10)); err != nil {
		t.Fatal(err)
	}
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := pagefile.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, pagefile.PageSize)
	if err := raw.Read(fileMetaPage, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf[:4]) != "8RTU" { // "UTR8", little endian
		t.Fatalf("metadata magic %q, want UTR8", buf[:4])
	}
	buf[0] = '1'
	if err := raw.Write(fileMetaPage, buf); err != nil {
		t.Fatal(err)
	}
	if err := raw.Close(); err != nil {
		t.Fatal(err)
	}
	tree, err := OpenTree(path, Config{})
	if !errors.Is(err, ErrOldLayout) {
		if err == nil {
			tree.Close()
		}
		t.Fatalf("OpenTree on a UTR1 file: err = %v, want ErrOldLayout", err)
	}
}

// TestOpenTreeRefusesChildPointerLoop: a file whose root points its first
// entry back at the root once sent OpenTree's walk into unbounded
// recursion. The walk reads each child at the level below its parent, so
// the open fails with ErrBadPage naming the root page.
func TestOpenTreeRefusesChildPointerLoop(t *testing.T) {
	path := filepath.Join(t.TempDir(), "loop.utree")
	built, err := NewTree(Config{Dimensions: 2, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	objs := make(map[int64]PDF, 1000)
	for id := int64(0); id < 1000; id++ {
		objs[id] = UniformCircle(Pt(rng.Float64()*10000, rng.Float64()*10000), 20)
	}
	if err := built.BulkLoad(objs); err != nil {
		t.Fatal(err)
	}
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := pagefile.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	meta := make([]byte, pagefile.PageSize)
	if err := raw.Read(fileMetaPage, meta); err != nil {
		t.Fatal(err)
	}
	root := pagefile.PageID(binary.LittleEndian.Uint32(meta[8:]))
	page := make([]byte, pagefile.PageSize)
	if err := raw.Read(root, page); err != nil {
		t.Fatal(err)
	}
	if page[0] == 0 {
		t.Fatal("fixture: the root is a leaf")
	}
	binary.LittleEndian.PutUint32(page[8:], uint32(root)) // entry 0's child
	if err := raw.Write(root, page); err != nil {
		t.Fatal(err)
	}
	if err := raw.Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		tree, err := OpenTree(path, Config{})
		if err == nil {
			tree.Close()
		}
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("OpenTree did not return within 2 s")
	}
	var bad *pagefile.BadPageError
	if !errors.Is(err, ErrBadPage) || !errors.As(err, &bad) || bad.Page != root {
		t.Fatalf("OpenTree: err %v, want ErrBadPage for page %d", err, root)
	}
}

// TestOpenTreeRefusesV1PageFormat: a page file whose header carries the
// page-file magic ("UTRE") and a zero version field — the unchecksummed v1
// format — is refused with pagefile.ErrOldFormat, never decoded.
func TestOpenTreeRefusesV1PageFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.utree")
	header := make([]byte, pagefile.PageSize)
	copy(header, "ERTU") // "UTRE", little endian; bytes 16–19 (version) stay 0
	header[4] = 1        // page count: the header alone
	if err := os.WriteFile(path, header, 0o644); err != nil {
		t.Fatal(err)
	}
	tree, err := OpenTree(path, Config{})
	if !errors.Is(err, pagefile.ErrOldFormat) {
		if err == nil {
			tree.Close()
		}
		t.Fatalf("OpenTree on a v1 page file: err = %v, want pagefile.ErrOldFormat", err)
	}
}

// TestIndexConformanceShapes is the conformance contract of the shape table,
// one keyed pdf family at a time: in a dataset of two shapes of the family,
// range queries decide candidates at the leaf, before their record is read,
// and return the objects — probabilities included wherever both compute
// one — the same file returns once its table is emptied. A keyed leaf
// entry's faces are its shape's, so without the table the leaf decides none
// of them and every one it meets is refined from its record. A ball's record
// is keyed — its centre and a shape reference — so once the table is gone, a
// query that reads one fails with ErrCorruptPDF instead, and the others
// answer as before. The mc=true subtests configure a k-NN sample count,
// which no range query reads.
func TestIndexConformanceShapes(t *testing.T) {
	lattice := func(rng *rand.Rand, step float64) Point {
		return Pt(step*float64(rng.Intn(int(conformanceSpan/step))), step*float64(rng.Intn(int(conformanceSpan/step))))
	}
	box := func(c Point, hx, hy float64) Rect { return Box(Pt(c[0]-hx, c[1]-hy), Pt(c[0]+hx, c[1]+hy)) }
	// Rectangles lie on a lattice of eighths, where hi − lo, which their
	// ShapeKey holds as computed, comes out the same wherever they are; the
	// polygon, whose key holds vertex − centroid, on a lattice of sixes.
	families := []struct {
		name  string
		pdf   func(rng *rand.Rand, big bool) PDF
		keyed bool // the family's records are keyed
	}{
		{"circle", func(rng *rand.Rand, big bool) PDF {
			return UniformCircle(Pt(rng.Float64()*conformanceSpan, rng.Float64()*conformanceSpan), map[bool]float64{false: 14, true: 22.5}[big])
		}, true},
		{"con-gau", func(rng *rand.Rand, big bool) PDF {
			return ConstrainedGaussian(Pt(rng.Float64()*conformanceSpan, rng.Float64()*conformanceSpan), map[bool]float64{false: 15, true: 24}[big], 7.5)
		}, true},
		{"box", func(rng *rand.Rand, big bool) PDF {
			return UniformBox(box(lattice(rng, 0.125), map[bool]float64{false: 12, true: 20}[big], 16))
		}, false},
		{"gauss-box", func(rng *rand.Rand, big bool) PDF {
			c := lattice(rng, 0.125)
			return TruncatedGaussianBox(box(c, 18, map[bool]float64{false: 12, true: 20}[big]), Pt(c[0]-4, c[1]+2), []float64{12, 9})
		}, false},
		{"expo-box", func(rng *rand.Rand, big bool) PDF {
			return ExponentialBox(box(lattice(rng, 0.125), map[bool]float64{false: 12, true: 20}[big], 16), []float64{0.05, 0.03})
		}, false},
		{"polygon", func(rng *rand.Rand, big bool) PDF {
			c, a := lattice(rng, 6), map[bool]float64{false: 18, true: 30}[big]
			return UniformPolygon([]Point{{c[0] + a, c[1]}, {c[0] + 6, c[1] + 18}, {c[0] - 6, c[1] + 18}, {c[0] - a, c[1]}, {c[0] - 6, c[1] - 18}, {c[0] + 6, c[1] - 18}})
		}, false},
	}
	queries := append(shardedFixtureQueries(24, 35), latticeFixtureQueries(6, 30, 0.3)...)
	searchAll := func(t *testing.T, idx *Tree) (out [][]Result, total Stats) {
		t.Helper()
		for i, q := range queries {
			res, stats, err := idx.Search(context.Background(), q.Rect, q.Prob)
			if err != nil {
				t.Fatalf("query %d: %v", i, err)
			}
			out = append(out, res)
			total.Add(stats)
		}
		return out, total
	}
	for _, f := range families {
		for _, mc := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/mc=%v", f.name, mc), func(t *testing.T) {
				cfg := Config{Dimensions: 2, Path: filepath.Join(t.TempDir(), "shapes.utree")}
				if mc {
					cfg.MonteCarloSamples = 300
				}
				idx, err := NewTree(cfg)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(37))
				bulk := make(map[int64]PDF)
				for id := int64(0); id < 400; id++ {
					bulk[id] = f.pdf(rng, id%3 == 0)
				}
				if err := idx.BulkLoad(bulk); err != nil {
					t.Fatal(err)
				}
				for id := int64(400); id < 440; id++ {
					if err := idx.Insert(id, f.pdf(rng, id%3 == 0)); err != nil {
						t.Fatal(err)
					}
				}
				if idx.Shapes() != 2 {
					t.Fatalf("%d shapes in the table, the dataset has 2", idx.Shapes())
				}
				if err := idx.CheckRecords(); err != nil {
					t.Fatal(err)
				}
				want, with := searchAll(t, idx)
				if with.ShapeDecided == 0 || with.ShapeDecided > with.MarginalValidated+with.MarginalPruned {
					t.Fatalf("%d candidates decided before their record was read: %+v", with.ShapeDecided, with)
				}
				if err := idx.Close(); err != nil {
					t.Fatal(err)
				}

				// Empty the table in the file: count u16 behind the 36 bytes
				// of fixed metadata. Every reference now points past the
				// table and is ignored, as in a build without one.
				raw, err := pagefile.OpenFileStore(cfg.Path)
				if err != nil {
					t.Fatal(err)
				}
				meta := make([]byte, pagefile.PageSize)
				if err := raw.Read(fileMetaPage, meta); err != nil {
					t.Fatal(err)
				}
				if meta[36] != 2 || meta[37] != 0 {
					t.Fatalf("shape count on the metadata page reads %d, %d", meta[36], meta[37])
				}
				meta[36] = 0
				if err := raw.Write(fileMetaPage, meta); err != nil {
					t.Fatal(err)
				}
				if err := raw.Close(); err != nil {
					t.Fatal(err)
				}
				bare, err := OpenTree(cfg.Path, cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer bare.Discard()
				if f.keyed {
					failed := 0
					for i, q := range queries {
						res, _, err := bare.Search(context.Background(), q.Rect, q.Prob)
						if err != nil {
							if !errors.Is(err, updf.ErrCorruptPDF) {
								t.Fatalf("query %d without the table: %v, want ErrCorruptPDF", i, err)
							}
							failed++
							continue
						}
						requireSameResults(t, fmt.Sprintf("without the table, query %d:", i), want[i:i+1], [][]Result{res})
					}
					if failed == 0 {
						t.Fatal("no query read a keyed record the emptied table cannot resolve")
					}
					return
				}
				got, without := searchAll(t, bare)
				for i := range want {
					prob := map[int64]float64{}
					for _, r := range got[i] {
						prob[r.ID] = r.Prob
					}
					for _, r := range want[i] {
						if p, ok := prob[r.ID]; !ok || r.Prob >= 0 && p >= 0 && p != r.Prob {
							t.Fatalf("without the table, query %d: object %d with probability %v, want %v", i, r.ID, p, r.Prob)
						}
					}
					if len(got[i]) != len(want[i]) {
						t.Fatalf("without the table, query %d: %d results, want %d", i, len(got[i]), len(want[i]))
					}
				}
				if bare.Shapes() != 0 || without.ShapeDecided != 0 || without.Validated != 0 || without.ProbFilterPruned != 0 ||
					without.Candidates <= with.Candidates || without.RefinementIOs <= with.RefinementIOs {
					t.Fatalf("without the table the leaf decides an entry, or nothing more is refined:\n with    %+v\n without %+v", with, without)
				}
			})
		}
	}
}

// readLogStore records, while armed, which shard each store read serves,
// and whether two shards' reads were ever in flight together. Every read
// sleeps a little so that an overlap, if the query had one, shows.
type readLogStore struct {
	pagefile.Store
	shard int
	log   *shardReadLog
}

type shardReadLog struct {
	mu       sync.Mutex
	armed    bool
	inFlight int
	overlap  bool
	shards   []int // the shard of every read, in order
}

func (s *readLogStore) Read(id pagefile.PageID, buf []byte) error {
	l := s.log
	l.mu.Lock()
	armed := l.armed
	if armed {
		l.inFlight++
		l.overlap = l.overlap || l.inFlight > 1
		l.shards = append(l.shards, s.shard)
	}
	l.mu.Unlock()
	if armed {
		time.Sleep(100 * time.Microsecond)
		defer func() {
			l.mu.Lock()
			l.inFlight--
			l.mu.Unlock()
		}()
	}
	return s.Store.Read(id, buf)
}

// runs returns the shards in the order their reads came, each run of
// consecutive reads of one shard as one entry.
func (l *shardReadLog) runs() []int {
	var out []int
	for _, sh := range l.shards {
		if len(out) == 0 || out[len(out)-1] != sh {
			out = append(out, sh)
		}
	}
	return out
}

// TestShardedNNSerialOrder: a sharded NN query reads its shards one at a
// time, in the order of the distance from q to their root boxes. Under an
// open bound — k is the whole population, more than any one shard holds —
// every shard is read and none is pruned. With a small k the merged k-th
// distance after the nearest shard rules the far shards out, and they read
// no page at all.
func TestShardedNNSerialOrder(t *testing.T) {
	const shards, n = 3, 300
	log := &shardReadLog{}
	built := 0 // WrapStore runs once per shard, in shard order
	st, err := NewSpatialShardedTree(shards, Config{
		Dimensions:       2,
		NodeCacheEntries: -1,
		WrapStore: func(s pagefile.Store) pagefile.Store {
			built++
			return &readLogStore{Store: s, shard: built - 1, log: log}
		},
	}, fixtureDomain)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.BulkLoad(shardedFixtureObjects(n, 61)); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	query := func(q Point, k int) ([]int, NNStats) {
		t.Helper()
		log.mu.Lock()
		log.armed, log.shards, log.overlap = true, nil, false
		log.mu.Unlock()
		_, stats, err := st.NearestNeighbors(context.Background(), q, k)
		log.mu.Lock()
		defer log.mu.Unlock()
		log.armed = false
		if err != nil {
			t.Fatal(err)
		}
		if log.overlap {
			t.Fatalf("NN at %v, k = %d: two shards read pages at once", q, k)
		}
		return log.runs(), stats
	}

	t.Run("open bound", func(t *testing.T) {
		// q lies in shard 2's slab; shard 1's slab is nearer than shard 0's.
		runs, stats := query(Pt(900, 500), n)
		if want := []int{2, 1, 0}; !slices.Equal(runs, want) {
			t.Fatalf("shards read in the order %v, want %v, one at a time", runs, want)
		}
		if stats.ShardsPruned != 0 || stats.BoundPruned != 0 {
			t.Fatalf("%d shards and %d frontier entries pruned under an open bound", stats.ShardsPruned, stats.BoundPruned)
		}
	})
	t.Run("far shard", func(t *testing.T) {
		// The 5 nearest objects to q lie well inside shard 0's slab, far
		// nearer than the other slabs' root boxes.
		runs, stats := query(Pt(50, 500), 5)
		if want := []int{0}; !slices.Equal(runs, want) {
			t.Fatalf("shards read in the order %v, want only %v", runs, want)
		}
		if stats.ShardsPruned != shards-1 {
			t.Fatalf("%d shards pruned, want %d", stats.ShardsPruned, shards-1)
		}
	})
}

// TestShardedNNTieAcrossShards: a neighbour of a later shard at exactly the
// merged k-th distance, with a smaller ID, displaces the merged k-th — the
// bound a shard is searched under keeps ties eligible, and the merge orders
// by (distance, ID). Two histogram objects sit mirrored about q, one per
// slab, each with its one refinement sample in a zero-density cell, so its
// expected distance is exactly its centre's distance to q: 100 for both.
// Their root boxes are equally far from q, so shard 0, which holds the
// larger ID, goes first.
func TestShardedNNTieAcrossShards(t *testing.T) {
	q := Pt(500, 500)
	weights := make([]float64, 9)
	weights[4] = 1 // mass only in the middle cell of a 3×3 grid
	obj := func(cx float64) PDF {
		return Histogram(Box(Pt(cx-5, 495), Pt(cx+5, 505)), []int{3, 3}, weights)
	}
	// sampleMisses picks an ID whose one sample lands outside the mass.
	sampleMisses := func(p PDF, ids []int64) int64 {
		for _, id := range ids {
			if core.ExpectedDistance(p, q, 1, id) == p.Center().Dist(q) {
				return id
			}
		}
		t.Fatalf("no ID in %v samples outside the mass", ids)
		return 0
	}
	far, near := obj(400), obj(600)
	bigID := sampleMisses(far, []int64{100, 101, 102, 103, 104, 105})
	smallID := sampleMisses(near, []int64{1, 2, 3, 4, 5, 6})

	st, err := NewSpatialShardedTree(2, Config{Dimensions: 2, MonteCarloSamples: 1}, fixtureDomain)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Insert(bigID, far); err != nil {
		t.Fatal(err)
	}
	if err := st.Insert(smallID, near); err != nil {
		t.Fatal(err)
	}
	got, stats, err := st.NearestNeighbors(context.Background(), q, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []Neighbor{{ID: smallID, ExpectedDist: 100}}
	if !slices.Equal(got, want) {
		t.Fatalf("k = 1 across a tie: got %v, want %v", got, want)
	}
	if stats.ShardsPruned != 0 {
		t.Fatalf("the shard holding the tie was pruned (%d shards pruned)", stats.ShardsPruned)
	}
	got, _, err = st.NearestNeighbors(context.Background(), q, 2)
	if want := []Neighbor{{ID: smallID, ExpectedDist: 100}, {ID: bigID, ExpectedDist: 100}}; err != nil || !slices.Equal(got, want) {
		t.Fatalf("k = 2: got %v, %v, want %v", got, err, want)
	}
}
