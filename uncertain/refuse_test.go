package uncertain

import (
	"context"
	"math"
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
