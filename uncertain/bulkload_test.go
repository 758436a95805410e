package uncertain

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/pagefile"
)

// digestStore hashes every page write that reaches its store, page id and
// bytes, in the order they are made.
type digestStore struct {
	pagefile.Store
	h hash.Hash
}

func (d *digestStore) Write(id pagefile.PageID, buf []byte) error {
	d.h.Write(binary.LittleEndian.AppendUint32(nil, uint32(id)))
	d.h.Write(buf)
	return d.Store.Write(id, buf)
}

// loadDigest bulk-loads the named dataset at scale into a fresh tree — in
// memory, or in a file under dir where dir is set — and returns the digest
// of every page write from the tree's creation through the load's commit.
func loadDigest(t *testing.T, name dataset.Name, scale float64, dir string) string {
	t.Helper()
	objs := dataset.Generate(dataset.Config{Name: name, Scale: scale, Seed: 42})
	batch := make(map[int64]PDF, len(objs))
	for _, o := range objs {
		batch[o.ID] = o.PDF
	}
	d := &digestStore{h: sha256.New()}
	cfg := Config{Dimensions: name.Dim(), WrapStore: func(s pagefile.Store) pagefile.Store {
		d.Store = s
		return d
	}}
	if dir != "" {
		cfg.Path = filepath.Join(dir, string(name)+".utree")
	}
	tree, err := NewTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	if err := tree.BulkLoad(batch); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(d.h.Sum(nil)[:8])
}

// TestBulkLoadGoldenPages pins the bytes of every page BulkLoad and its
// commit write, at GOMAXPROCS 1, 2 and 4, for the three dataset stand-ins
// in memory, LB at a scale whose tree has height 3 and LB in a file: a
// change to how the load is computed must leave the tree it writes
// unchanged. The digests were taken before the load moved onto flat slabs,
// again when data pages became dense (UTR8), which moves every record and
// so every leaf's addresses, and again when STR's sort became a total
// order. Against the sort on keys alone, at every level of these five
// loads: the same tiles, each with the same key range on the dimension it
// was cut along; tiles differ only among entries tied on that key — at
// ×0.02 only their order within a tile (4 of 9, 5 of 12 and 10 of 27 leaf
// tiles), at LB ×0.25 14 of 110 leaf tiles and at LB ×0.05 2 of 25 in
// their members as well, each moved entry tied with one that moved the
// other way.
func TestBulkLoadGoldenPages(t *testing.T) {
	cases := []struct {
		name  dataset.Name
		scale float64
		file  bool
		want  string
	}{
		{dataset.LB, 0.02, false, "0c74786210ccb00f"},
		{dataset.CA, 0.02, false, "0fd4ff3aadfbc077"},
		{dataset.Aircraft, 0.02, false, "6ad2505f4a9f1910"},
		{dataset.LB, 0.25, false, "9087a6273e3aada8"}, // height 3: STR tiles an inner level
		{dataset.LB, 0.05, true, "f01234eb5ad1fda2"},
	}
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, c := range cases {
			dir := ""
			if c.file {
				dir = t.TempDir()
			}
			if got := loadDigest(t, c.name, c.scale, dir); got != c.want {
				t.Errorf("GOMAXPROCS %d, %s ×%g (file %v): page digest %s, want %s", procs, c.name, c.scale, c.file, got, c.want)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}
