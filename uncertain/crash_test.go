package uncertain

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/pagefile"
	"repro/internal/pagefile/chaos"
)

// This file is the crash-consistency contract of the copy-on-write commit
// scheme: a file-backed index killed at ANY store-operation offset inside
// a mutation — shadow writes, data appends, the metadata write, the
// post-commit reclamation — must reopen at the last committed epoch, with
// intact invariants and byte-identical query results. A mutation is
// atomic: the recovered tree either contains the full operation or none
// of it, never a partial state.

// crashQueries are fixed probes over the base population's region; the
// crash-victim objects live far outside them, so the expected results are
// identical whether or not the killed operation committed.
func crashQueries() []RangeQuery {
	rng := rand.New(rand.NewSource(17))
	qs := make([]RangeQuery, 12)
	for i := range qs {
		lo := Pt(rng.Float64()*700, rng.Float64()*700)
		qs[i] = RangeQuery{
			Rect: Box(lo, Pt(lo[0]+220, lo[1]+220)),
			Prob: 0.3 + 0.4*rng.Float64(),
		}
	}
	return qs
}

func crashSearchAll(t *testing.T, idx Index, queries []RangeQuery) [][]Result {
	t.Helper()
	out := make([][]Result, len(queries))
	for i, q := range queries {
		res, _, err := idx.Search(context.Background(), q.Rect, q.Prob)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		out[i] = res
	}
	return out
}

// buildCrashGolden creates the committed baseline file: a base population
// inside [0,1000]^2 (some of it then deleted, so the file has lived
// through COW churn and holds unreferenced records) plus one far-away object the
// delete-crash sweep will target.
func buildCrashGolden(t *testing.T, path string, cfg Config) (wantLen int, want [][]Result) {
	t.Helper()
	tree, err := NewTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	const base = 140
	for i := int64(0); i < base; i++ {
		if err := tree.Insert(i, UniformCircle(Pt(rng.Float64()*1000, rng.Float64()*1000), 12)); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < base; i += 9 {
		if err := tree.Delete(i); err != nil {
			t.Fatal(err)
		}
	}
	// The delete-sweep victim, far outside every probe query.
	if err := tree.Insert(9000, UniformCircle(Pt(6000, 6000), 12)); err != nil {
		t.Fatal(err)
	}
	want = crashSearchAll(t, tree, crashQueries())
	wantLen = tree.Len()
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}
	return wantLen, want
}

// crashIDs is every ID a crash test's tree can hold: the golden build's
// base population and victim, and the killed operations' inserts.
func crashIDs() []int64 {
	var ids []int64
	for id := int64(0); id < 140; id++ {
		ids = append(ids, id)
	}
	return append(ids, 9000, 9100, 9101, 9102)
}

// deleteAllByID deletes every object of a recovered tree by its bare ID —
// the directory OpenTree rebuilt from the leaves must address each one —
// and requires the tree empty and intact afterwards.
func deleteAllByID(t *testing.T, k int, rt *Tree) {
	t.Helper()
	live := rt.Len()
	deleted := 0
	for _, id := range crashIDs() {
		switch err := rt.Delete(id); {
		case err == nil:
			deleted++
		case !errors.Is(err, ErrNotFound):
			t.Fatalf("offset %d: Delete(%d) on the recovered tree: %v", k, id, err)
		}
	}
	if deleted != live || rt.Len() != 0 {
		t.Fatalf("offset %d: deleted %d of %d recovered objects by ID, Len %d left", k, deleted, live, rt.Len())
	}
	if err := rt.CheckInvariants(); err != nil {
		t.Fatalf("offset %d: invariants after deleting every object: %v", k, err)
	}
}

// failAfter wraps s so k store operations succeed and every later one
// fails with chaos.ErrInjected: a process that died at offset k. The
// handle's Remaining stays above 0 while the countdown has not run out.
func failAfter(s pagefile.Store, k int) (pagefile.Store, *chaos.RuleHandle) {
	cs := chaos.New(s, 0)
	h := cs.MustAddRule(chaos.Rule{Op: chaos.OpAny, Fault: chaos.FaultPermanent, Countdown: int64(k), Sticky: true})
	return cs, h
}

// runCrashSweep kills op(tree) at every store-operation offset k: each
// round restores a pristine copy of the golden file, reopens it with a
// store armed to fail after k operations (failAfter), runs op, simulates
// the crash (Discard: no flush, no commit, no reclaim), reopens without
// faults and verifies the recovered tree. verify receives the recovered
// tree and whether op had reported success; then every recovered object
// is deleted by ID. The sweep ends when the countdown outlives the whole
// operation.
func runCrashSweep(t *testing.T, golden []byte, cfg Config, queries []RangeQuery,
	op func(*Tree) error, verify func(t *testing.T, k int, rt *Tree, opOK bool)) {
	t.Helper()
	work := filepath.Join(t.TempDir(), "crash.utree")
	for k := 0; ; k++ {
		if k > 500 {
			t.Fatal("crash sweep did not terminate: operation exceeds 500 store ops")
		}
		if err := os.WriteFile(work, golden, 0o644); err != nil {
			t.Fatal(err)
		}
		var fault *chaos.RuleHandle
		fcfg := cfg
		fcfg.WrapStore = func(s pagefile.Store) (ws pagefile.Store) {
			ws, fault = failAfter(s, k)
			return ws
		}
		opOK := false
		survived := false
		tree, err := OpenTree(work, fcfg)
		if err == nil {
			opErr := op(tree)
			opOK = opErr == nil
			survived = opOK && fault.Remaining() > 0
			if err := tree.Discard(); err != nil {
				t.Fatalf("offset %d: discard: %v", k, err)
			}
		}

		rt, err := OpenTree(work, cfg)
		if err != nil {
			t.Fatalf("offset %d: reopen after crash: %v", k, err)
		}
		if err := rt.CheckInvariants(); err != nil {
			t.Fatalf("offset %d: recovered invariants: %v", k, err)
		}
		if rt.Epoch() == 0 {
			t.Fatalf("offset %d: recovered epoch 0", k)
		}
		assertDirectory(t, fmt.Sprintf("offset %d: recovered", k), rt)
		verify(t, k, rt, opOK)
		deleteAllByID(t, k, rt)
		assertDirectory(t, fmt.Sprintf("offset %d: emptied", k), rt)
		if err := rt.Close(); err != nil {
			t.Fatalf("offset %d: closing recovered tree: %v", k, err)
		}
		if survived {
			return // every offset inside the operation has been exercised
		}
	}
}

func TestCrashRecoveryKilledInsert(t *testing.T) {
	if testing.Short() {
		t.Skip("crash sweep skipped in -short")
	}
	cfg := Config{Dimensions: 2}
	path := filepath.Join(t.TempDir(), "golden.utree")
	gcfg := cfg
	gcfg.Path = path
	wantLen, want := buildCrashGolden(t, path, gcfg)
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	queries := crashQueries()

	// The killed operation: insert one object far outside the probes.
	const crashID = int64(9100)
	runCrashSweep(t, golden, cfg, queries,
		func(tree *Tree) error {
			return tree.Insert(crashID, UniformCircle(Pt(5000, 5000), 12))
		},
		func(t *testing.T, k int, rt *Tree, opOK bool) {
			got := crashSearchAll(t, rt, queries)
			requireSameResults(t, "recovered", want, got)
			// Strict atomicity: a reported success means the epoch published
			// (meta written) before the fault, so the insert must be durable;
			// a reported failure means it never published (reclaim faults
			// after publication are stashed, not returned), so the recovered
			// tree must not contain it.
			switch {
			case opOK && rt.Len() == wantLen+1:
			case !opOK && rt.Len() == wantLen:
			default:
				t.Fatalf("offset %d: opOK=%v but recovered Len %d (atomicity: want %d on failure, %d on success)",
					k, opOK, rt.Len(), wantLen, wantLen+1)
			}
		})
}

// TestCrashRecoveryKilledBatch sweeps a crash through a multi-op
// WriteBatch: three far-away inserts plus the delete of the golden
// victim, published as ONE epoch. Recovery must land exactly on a batch
// boundary — the recovered tree holds either the full batch or none of
// it, never two of the inserts or the delete alone. The second insert brings
// a pdf shape the golden file does not know, so the batch also appends to
// the shape table, which the same metadata write commits: at no offset does
// a recovered leaf entry name a shape the recovered table lacks (that is
// CheckInvariants, which the sweep runs), and the new shape is there exactly
// when the batch is.
func TestCrashRecoveryKilledBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("crash sweep skipped in -short")
	}
	cfg := Config{Dimensions: 2}
	path := filepath.Join(t.TempDir(), "golden.utree")
	gcfg := cfg
	gcfg.Path = path
	wantLen, want := buildCrashGolden(t, path, gcfg)
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	queries := crashQueries()

	runCrashSweep(t, golden, cfg, queries,
		func(tree *Tree) error {
			return tree.WriteBatch(func(w BatchWriter) error {
				for i := int64(0); i < 3; i++ {
					radius := []float64{12, 17, 12}[i] // 17: a shape of its own
					if err := w.Insert(9100+i, UniformCircle(Pt(5000+float64(i)*40, 5000), radius)); err != nil {
						return err
					}
				}
				return w.Delete(9000)
			})
		},
		func(t *testing.T, k int, rt *Tree, opOK bool) {
			got := crashSearchAll(t, rt, queries)
			requireSameResults(t, "recovered", want, got)
			// Batch boundary: +3 inserts, -1 delete and +1 shape when the batch
			// epoch published; byte-identical golden state when it did not.
			switch {
			case opOK && rt.Len() == wantLen+2 && rt.Shapes() == 2:
			case !opOK && rt.Len() == wantLen && rt.Shapes() == 1:
			default:
				t.Fatalf("offset %d: opOK=%v but recovered Len %d with %d shapes (batch atomicity: want %d and 1 on failure, %d and 2 on success)",
					k, opOK, rt.Len(), rt.Shapes(), wantLen, wantLen+2)
			}
			if err := rt.CheckRecords(); err != nil {
				t.Fatalf("offset %d: %v", k, err)
			}
		})
}

// writeLog is a store that records the pages written through it.
type writeLog struct {
	pagefile.Store
	written map[pagefile.PageID]int
}

func (w *writeLog) Write(id pagefile.PageID, buf []byte) error {
	w.written[id]++
	return w.Store.Write(id, buf)
}

// TestFileTreeWritesOnlyCountedPages pins a page file's traffic: across a
// committed BulkLoad and a committed WriteBatch of inserts and deletes,
// which allocate, retire and free pages, the only page slots of the file
// whose bytes change are pages the tree wrote, each write counted in the
// file's Stats.Writes. Alloc and Free do no I/O, and the header (page 0)
// is never written after create.
func TestFileTreeWritesOnlyCountedPages(t *testing.T) {
	const slot = pagefile.PageSize + 8 // a page and its checksum trailer
	path := filepath.Join(t.TempDir(), "traffic.utree")
	log := &writeLog{written: map[pagefile.PageID]int{}}
	tree, err := NewTree(Config{Dimensions: 2, Path: path, WrapStore: func(s pagefile.Store) pagefile.Store {
		log.Store = s
		return log
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	rng := rand.New(rand.NewSource(29))
	circle := func() PDF { return UniformCircle(Pt(rng.Float64()*1000, rng.Float64()*1000), 12) }
	load := make(map[int64]PDF)
	for id := int64(0); id < 1500; id++ {
		load[id] = circle()
	}
	step := func(what string, op func() error) {
		t.Helper()
		before, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		clear(log.written)
		_, w0, a0, f0 := tree.file.Stats().Snapshot()
		if err := op(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		_, w1, a1, f1 := tree.file.Stats().Snapshot()
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		writes := 0
		for _, n := range log.written {
			writes += n
		}
		if int64(writes) != w1-w0 || a1 == a0 || f1 == f0 {
			t.Fatalf("%s: %d writes through the tree, %d counted; %d allocs, %d frees", what, writes, w1-w0, a1-a0, f1-f0)
		}
		changed := 0
		for p := 0; p*slot < max(len(before), len(after)); p++ {
			page := func(file []byte) []byte { return file[min(p*slot, len(file)):min((p+1)*slot, len(file))] }
			if bytes.Equal(page(before), page(after)) {
				continue
			}
			changed++
			if p == 0 || log.written[pagefile.PageID(p)] == 0 {
				t.Fatalf("%s: page slot %d changed, but the tree wrote it 0 times", what, p)
			}
		}
		if changed == 0 {
			t.Fatalf("%s: no page slot changed", what)
		}
	}
	step("bulk load", func() error { return tree.BulkLoad(load) })
	step("write batch", func() error {
		return tree.WriteBatch(func(b BatchWriter) error {
			for id := int64(0); id < 1500; id += 3 {
				if err := b.Delete(id); err != nil {
					return err
				}
			}
			for id := int64(2000); id < 2200; id++ {
				if err := b.Insert(id, circle()); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenTreeSweepsLeakedPages is the regression test for the open-time
// reachability sweep: kill an insert at every store-operation offset and
// require that reopening leaves NO unreachable live page — every page the
// crash leaked (aborted shadow copies, unpublished fresh pages, undrained
// epoch garbage) is back on the free list. At least one offset must
// actually leak, or the test isn't testing the sweep.
func TestOpenTreeSweepsLeakedPages(t *testing.T) {
	if testing.Short() {
		t.Skip("crash sweep skipped in -short")
	}
	cfg := Config{Dimensions: 2}
	path := filepath.Join(t.TempDir(), "golden.utree")
	gcfg := cfg
	gcfg.Path = path
	buildCrashGolden(t, path, gcfg)
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	work := filepath.Join(t.TempDir(), "leak.utree")
	sweptAny := false
	for k := 0; ; k++ {
		if k > 500 {
			t.Fatal("leak sweep did not terminate: operation exceeds 500 store ops")
		}
		if err := os.WriteFile(work, golden, 0o644); err != nil {
			t.Fatal(err)
		}
		var fault *chaos.RuleHandle
		fcfg := cfg
		fcfg.WrapStore = func(s pagefile.Store) (ws pagefile.Store) {
			ws, fault = failAfter(s, k)
			return ws
		}
		survived := false
		tree, err := OpenTree(work, fcfg)
		if err == nil {
			opErr := tree.Insert(9100, UniformCircle(Pt(5000, 5000), 12))
			survived = opErr == nil && fault.Remaining() > 0
			if err := tree.Discard(); err != nil {
				t.Fatalf("offset %d: discard: %v", k, err)
			}
		}

		// Live-page count as the crash left it: a reopened file counts every
		// page up to its length live until OpenTree's Retain, so the pages
		// the crash leaked are counted here.
		raw, err := pagefile.OpenFileStore(work)
		if err != nil {
			t.Fatalf("offset %d: raw reopen: %v", k, err)
		}
		liveBefore := raw.NumPages()
		if err := raw.Close(); err != nil {
			t.Fatal(err)
		}

		rt, err := OpenTree(work, cfg)
		if err != nil {
			t.Fatalf("offset %d: reopen after crash: %v", k, err)
		}
		assertDirectory(t, fmt.Sprintf("offset %d: recovered", k), rt)
		reach, err := rt.inner.ReachablePages()
		if err != nil {
			t.Fatalf("offset %d: reachable walk: %v", k, err)
		}
		reach[pagefile.PageID(1)] = true // metadata page
		if live := rt.file.NumPages(); live != len(reach) {
			t.Fatalf("offset %d: %d live pages but only %d reachable — sweep left leaks", k, live, len(reach))
		}
		if rt.file.NumPages() < liveBefore {
			sweptAny = true
		}
		if err := rt.CheckInvariants(); err != nil {
			t.Fatalf("offset %d: recovered invariants: %v", k, err)
		}
		if err := rt.Close(); err != nil {
			t.Fatal(err)
		}
		if survived {
			break
		}
	}
	if !sweptAny {
		t.Fatal("no crash offset leaked a page; the sweep was never exercised")
	}
}

func TestCrashRecoveryKilledDelete(t *testing.T) {
	if testing.Short() {
		t.Skip("crash sweep skipped in -short")
	}
	cfg := Config{Dimensions: 2}
	path := filepath.Join(t.TempDir(), "golden.utree")
	gcfg := cfg
	gcfg.Path = path
	wantLen, want := buildCrashGolden(t, path, gcfg)
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	queries := crashQueries()

	// The killed operation: delete the far-away victim (id 9000 at
	// (6000,6000), inserted by the golden build).
	runCrashSweep(t, golden, cfg, queries,
		func(tree *Tree) error {
			return tree.Delete(9000)
		},
		func(t *testing.T, k int, rt *Tree, opOK bool) {
			got := crashSearchAll(t, rt, queries)
			requireSameResults(t, "recovered", want, got)
			switch {
			case opOK && rt.Len() == wantLen-1: // delete committed and durable
			case !opOK && rt.Len() == wantLen: // delete never published
			default:
				t.Fatalf("offset %d: opOK=%v but recovered Len %d (atomicity: want %d on failure, %d on success)",
					k, opOK, rt.Len(), wantLen, wantLen-1)
			}
		})
}

// widenInnerPages rewrites the file at path as a version before UTR6 left
// it: every U-tree intermediate page's boxes as float64 without the header
// flag (float32 faces widen exactly), and the metadata magic UTR5. It
// returns how many pages it rewrote.
func widenInnerPages(t *testing.T, path string) int {
	t.Helper()
	raw, err := pagefile.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	meta := make([]byte, pagefile.PageSize)
	if err := raw.Read(fileMetaPage, meta); err != nil {
		t.Fatal(err)
	}
	dim := int(meta[5])
	half, wide := 8+16*dim, 8+32*dim
	rewritten := 0
	var widen func(page pagefile.PageID)
	widen = func(page pagefile.PageID) {
		buf := make([]byte, pagefile.PageSize)
		if err := raw.Read(page, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] == 0 {
			return
		}
		if buf[1] != 1 {
			t.Fatalf("page %d: intermediate page without the float32 flag", page)
		}
		count := int(binary.LittleEndian.Uint16(buf[2:]))
		out := make([]byte, pagefile.PageSize)
		copy(out[:4], buf)
		out[1] = 0
		for i := range count {
			from, to := 8+i*half, 8+i*wide
			copy(out[to:to+8], buf[from:from+8])
			for k := range 4 * dim {
				f := math.Float32frombits(binary.LittleEndian.Uint32(buf[from+8+4*k:]))
				binary.LittleEndian.PutUint64(out[to+8+8*k:], math.Float64bits(float64(f)))
			}
			widen(pagefile.PageID(binary.LittleEndian.Uint32(buf[from:])))
		}
		if err := raw.Write(page, out); err != nil {
			t.Fatal(err)
		}
		rewritten++
	}
	widen(pagefile.PageID(binary.LittleEndian.Uint32(meta[8:])))
	copy(meta, "5RTU") // "UTR5", little endian
	if err := raw.Write(fileMetaPage, meta); err != nil {
		t.Fatal(err)
	}
	return rewritten
}

// TestCrashRecoveryKilledMigratingInsert sweeps a crash through the first
// commit of a file written before UTR6, whose intermediate root holds
// float64 boxes: the insert rewrites the root in the float32 layout and the
// commit stamps the file UTR8. At every offset the file reopens as the
// older file or as the migrated one — invariants intact, the same answers
// — and a completed insert leaves a UTR8 file whose root is float32.
func TestCrashRecoveryKilledMigratingInsert(t *testing.T) {
	if testing.Short() {
		t.Skip("crash sweep skipped in -short")
	}
	cfg := Config{Dimensions: 2}
	path := filepath.Join(t.TempDir(), "golden.utree")
	gcfg := cfg
	gcfg.Path = path
	wantLen, want := buildCrashGolden(t, path, gcfg)
	if n := widenInnerPages(t, path); n == 0 {
		t.Fatal("fixture: the golden tree has no intermediate page")
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	queries := crashQueries()

	insert := func(tree *Tree) error {
		return tree.Insert(9100, UniformCircle(Pt(5000, 5000), 12))
	}
	runCrashSweep(t, golden, cfg, queries, insert,
		func(t *testing.T, k int, rt *Tree, opOK bool) {
			requireSameResults(t, "recovered", want, crashSearchAll(t, rt, queries))
			switch {
			case opOK && rt.Len() == wantLen+1:
			case !opOK && rt.Len() == wantLen:
			default:
				t.Fatalf("offset %d: opOK=%v but recovered Len %d (atomicity: want %d on failure, %d on success)",
					k, opOK, rt.Len(), wantLen, wantLen+1)
			}
		})

	// Uninterrupted, the insert migrates the file.
	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	tree, err := OpenTree(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := insert(tree); err != nil {
		t.Fatal(err)
	}
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := pagefile.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	meta, root := make([]byte, pagefile.PageSize), make([]byte, pagefile.PageSize)
	if err := raw.Read(fileMetaPage, meta); err != nil {
		t.Fatal(err)
	}
	if err := raw.Read(pagefile.PageID(binary.LittleEndian.Uint32(meta[8:])), root); err != nil {
		t.Fatal(err)
	}
	if string(meta[:4]) != "8RTU" || root[0] == 0 || root[1] != 1 {
		t.Fatalf("after the insert: magic %q, root level %d flags %#x; want UTR8 and a float32 intermediate root", meta[:4], root[0], root[1])
	}
}
