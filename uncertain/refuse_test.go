package uncertain

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// embedded is a pdf type defined outside updf. Embedding a built-in family
// gives it every method of PDF, the sealing one included, so it compiles;
// the codec has no tag for it.
type embedded struct{ PDF }

// TestMalformedObjectRefused: a nil pdf and regions with a NaN or an
// infinite coordinate are an error on every write path, and leave the tree
// as it was.
func TestMalformedObjectRefused(t *testing.T) {
	for name, bad := range map[string]PDF{
		"nil":             nil,
		"NaN centre":      UniformCircle(Pt(math.NaN(), 1), 5),
		"infinite centre": UniformCircle(Pt(math.Inf(1), 1), 5),
		"infinite corner": UniformBox(Box(Pt(0, 0), Pt(math.Inf(1), 1))),
	} {
		t.Run(name, func(t *testing.T) { assertRefused(t, bad) })
	}
}

// TestShardedMalformedObjectRefused: the sharded write paths route a nil
// pdf and a NaN region to a shard, which refuses them, instead of
// panicking on the route.
func TestShardedMalformedObjectRefused(t *testing.T) {
	for name, bad := range map[string]PDF{"nil": nil, "NaN centre": UniformCircle(Pt(math.NaN(), 1), 5)} {
		s, err := NewSpatialShardedTree(2, Config{Dimensions: 2}, Box(Pt(0, 0), Pt(1000, 1000)))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.BulkLoad(map[int64]PDF{1: bad}); err == nil {
			t.Errorf("%s: BulkLoad accepted it", name)
		}
		if err := s.Insert(2, bad); err == nil {
			t.Errorf("%s: Insert accepted it", name)
		}
		if err := s.WriteBatch(func(b BatchWriter) error { return b.Insert(3, bad) }); err == nil {
			t.Errorf("%s: WriteBatch accepted it", name)
		}
		if err := s.CheckInvariants(); err != nil || s.Len() != 0 {
			t.Errorf("%s: Len %d, %v", name, s.Len(), err)
		}
		s.Close()
	}
}

// TestForeignPDFRefused: the seal on updf.PDF cannot stop a type that
// embeds a built-in family; the codec refuses it at run time, alone and as
// a mixture component, on every write path, and the tree stays as it was.
func TestForeignPDFRefused(t *testing.T) {
	circle := UniformCircle(Pt(300, 300), 20)
	for name, bad := range map[string]PDF{
		"alone":             embedded{circle},
		"mixture component": MixturePDF([]PDF{embedded{circle}, UniformCircle(Pt(320, 300), 20)}, []float64{1, 1}),
	} {
		t.Run(name, func(t *testing.T) { assertRefused(t, bad) })
	}
}

// assertRefused offers bad to BulkLoad on an empty file-backed tree, then
// to Insert and inside a WriteBatch on the same tree holding 40 objects.
// Each must return an error and leave Len, the invariants and a query's
// answer as they were, and so must a reopen of the file.
func assertRefused(t *testing.T, bad PDF) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "idx.utree")
	cfg := Config{Dimensions: 2, Path: path}
	tree, err := NewTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { tree.Close() }()
	good := func(i int) PDF { return UniformCircle(Pt(float64(i%8)*100, float64(i/8)*100), 30) }
	probe := Box(Pt(50, 50), Pt(420, 330))
	unchanged := func(what string, n int, want []Result) {
		t.Helper()
		if tree.Len() != n {
			t.Fatalf("%s: Len %d, want %d", what, tree.Len(), n)
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		got, _, err := tree.Search(context.Background(), probe, 0.5)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: search gives %v (%v), want %v", what, got, err, want)
		}
	}

	if err := tree.BulkLoad(map[int64]PDF{1: good(1), 2: bad, 3: good(3)}); err == nil {
		t.Fatal("BulkLoad accepted it")
	}
	unchanged("after BulkLoad", 0, nil)

	for i := 0; i < 40; i++ {
		if err := tree.Insert(int64(i), good(i)); err != nil {
			t.Fatal(err)
		}
	}
	want, _, err := tree.Search(context.Background(), probe, 0.5)
	if err != nil || len(want) == 0 {
		t.Fatalf("search gives %v (%v)", want, err)
	}
	if err := tree.Insert(100, bad); err == nil {
		t.Fatal("Insert accepted it")
	}
	unchanged("after Insert", 40, want)

	err = tree.WriteBatch(func(b BatchWriter) error {
		if err := b.Insert(101, good(101)); err != nil {
			return err
		}
		return b.Insert(102, bad)
	})
	if err == nil {
		t.Fatal("WriteBatch accepted it")
	}
	unchanged("after WriteBatch", 40, want)

	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}
	if tree, err = OpenTree(path, cfg); err != nil {
		t.Fatal(err)
	}
	unchanged("reopened", 40, want)
}

// TestNonFiniteQueryRefused: a NaN probability and a query point with a NaN
// or infinite coordinate are an error — never a panic, never an answer —
// from a Tree of height 2, a 2-slab ShardedTree and the batch engine over
// each (whose queries run on worker goroutines, where a panic would end the
// process).
func TestNonFiniteQueryRefused(t *testing.T) {
	ctx := context.Background()
	objs := shardedFixtureObjects(2000, 41)
	tree, err := NewTree(Config{Dimensions: 2})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewSpatialShardedTree(2, Config{Dimensions: 2}, Box(Pt(0, 0), Pt(1000, 1000)))
	if err != nil {
		t.Fatal(err)
	}
	for name, idx := range map[string]Index{"tree": tree, "sharded": sharded} {
		defer idx.Close()
		if err := idx.BulkLoad(objs); err != nil {
			t.Fatal(err)
		}
		rect := Box(Pt(100, 100), Pt(600, 600))
		if res, _, err := idx.Search(ctx, rect, math.NaN()); err == nil {
			t.Errorf("%s: Search with probability NaN gave %d results and no error", name, len(res))
		}
		batch := []RangeQuery{{Rect: rect, Prob: 0.5}, {Rect: rect, Prob: math.NaN()}}
		if _, _, err := NewQueryEngine(idx, EngineOptions{Workers: 2}).SearchBatch(ctx, batch); err == nil {
			t.Errorf("%s: SearchBatch with probability NaN gave no error", name)
		}
		for _, q := range []Point{Pt(math.NaN(), 5), Pt(math.Inf(1), 5), Pt(5, math.Inf(-1))} {
			if nn, _, err := idx.NearestNeighbors(ctx, q, 3); err == nil {
				t.Errorf("%s: NearestNeighbors at %v gave %v and no error", name, q, nn)
			}
		}
	}
	if h := tree.Height(); h != 2 {
		t.Fatalf("fixture: a tree of height %d, want 2", h)
	}
}

// TestRefusedConfigLeavesFile: NewTree refuses a Config whose structure
// it cannot build — no dimensions, a catalog of one value, nodes of fewer
// than 4 entries — before it creates or truncates the file at Path. An
// index already there stays byte-identical and opens as before; a missing
// path stays missing.
func TestRefusedConfigLeavesFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "kept.utree")
	tree, err := NewTree(Config{Dimensions: 2, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.BulkLoad(shardedFixtureObjects(300, 5)); err != nil {
		t.Fatal(err)
	}
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	query := Box(Pt(100, 100), Pt(600, 600))
	answer := func() []Result {
		t.Helper()
		tree, err := OpenTree(path, Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer tree.Close()
		res, _, err := tree.Search(context.Background(), query, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if tree.Len() != 300 {
			t.Fatalf("reopened tree holds %d objects, want 300", tree.Len())
		}
		return res
	}
	want := answer()
	if len(want) == 0 {
		t.Fatal("fixture query answers nothing")
	}
	for name, cfg := range map[string]Config{
		"no dimensions":     {Dimensions: 0},
		"negative":          {Dimensions: -2},
		"one-value catalog": {Dimensions: 2, CatalogSize: 1},
		"catalog above 32":  {Dimensions: 2, CatalogSize: 33},
		"fan-out below 4":   {Dimensions: 25},
	} {
		t.Run(name, func(t *testing.T) {
			cfg.Path = path
			if tree, err := NewTree(cfg); err == nil {
				tree.Close()
				t.Fatal("NewTree accepted the config")
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Fatalf("the refused NewTree changed the file: %d bytes, was %d", len(after), len(before))
			}
			if got := answer(); !reflect.DeepEqual(got, want) {
				t.Fatalf("reopened answer %v, want %v", got, want)
			}
			missing := filepath.Join(dir, "missing.utree")
			cfg.Path = missing
			if tree, err := NewTree(cfg); err == nil {
				tree.Close()
				t.Fatal("NewTree accepted the config")
			}
			if _, err := os.Stat(missing); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("a refused NewTree left %s behind: %v", missing, err)
			}
		})
	}
}
