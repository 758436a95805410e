package pagefile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func testStores(t *testing.T) map[string]Store {
	t.Helper()
	dir := t.TempDir()
	fs, err := CreateFileStore(filepath.Join(dir, "store.pg"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return map[string]Store{
		"mem":  NewMemStore(),
		"file": fs,
	}
}

func TestStoreReadAfterWrite(t *testing.T) {
	for name, s := range testStores(t) {
		id, err := s.Alloc()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		in := make([]byte, PageSize)
		for i := range in {
			in[i] = byte(i * 7)
		}
		if err := s.Write(id, in); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out := make([]byte, PageSize)
		if err := s.Read(id, out); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(in, out) {
			t.Fatalf("%s: read != write", name)
		}
	}
}

func TestStoreAllocIsZeroed(t *testing.T) {
	for name, s := range testStores(t) {
		id, _ := s.Alloc()
		junk := make([]byte, PageSize)
		for i := range junk {
			junk[i] = 0xAB
		}
		s.Write(id, junk)
		if err := s.Free(id); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		id2, _ := s.Alloc() // should reuse the freed page, zeroed
		out := make([]byte, PageSize)
		if err := s.Read(id2, out); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, b := range out {
			if b != 0 {
				t.Fatalf("%s: recycled page not zeroed at %d", name, i)
			}
		}
	}
}

func TestStoreErrors(t *testing.T) {
	for name, s := range testStores(t) {
		buf := make([]byte, PageSize)
		if err := s.Read(PageID(9999), buf); err == nil {
			t.Errorf("%s: read of unallocated page succeeded", name)
		}
		if err := s.Write(PageID(9999), buf); err == nil {
			t.Errorf("%s: write of unallocated page succeeded", name)
		}
		if err := s.Free(PageID(9999)); err == nil {
			t.Errorf("%s: free of unallocated page succeeded", name)
		}
		id, _ := s.Alloc()
		if err := s.Read(id, make([]byte, 10)); !errors.Is(err, ErrBadLength) {
			t.Errorf("%s: short buffer accepted: %v", name, err)
		}
	}
}

func TestMemStoreDoubleFree(t *testing.T) {
	s := NewMemStore()
	id, _ := s.Alloc()
	if err := s.Free(id); err != nil {
		t.Fatal(err)
	}
	if err := s.Free(id); !errors.Is(err, ErrPageFreed) {
		t.Fatalf("double free: %v", err)
	}
	if err := s.Read(id, make([]byte, PageSize)); !errors.Is(err, ErrPageFreed) {
		t.Fatalf("read of freed page: %v", err)
	}
}

func TestStatsCounting(t *testing.T) {
	s := NewMemStore()
	id, _ := s.Alloc()
	buf := make([]byte, PageSize)
	s.Write(id, buf)
	s.Read(id, buf)
	s.Read(id, buf)
	r, w, a, f := s.Stats().Snapshot()
	if r != 2 || w != 1 || a != 1 || f != 0 {
		t.Fatalf("stats = %d/%d/%d/%d, want 2/1/1/0", r, w, a, f)
	}
	s.Stats().Reset()
	r, w, a, f = s.Stats().Snapshot()
	if r+w+a+f != 0 {
		t.Fatal("reset did not zero stats")
	}
}

func TestFileStorePersistence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "persist.pg")
	fs, err := CreateFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	id1, _ := fs.Alloc()
	id2, _ := fs.Alloc()
	in := make([]byte, PageSize)
	copy(in, []byte("hello page"))
	fs.Write(id1, in)
	fs.Free(id2)
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	out := make([]byte, PageSize)
	if err := re.Read(id1, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(in, out) {
		t.Fatal("data lost across reopen")
	}
	// The freed page must be recycled before extending the file.
	id3, _ := re.Alloc()
	if id3 != id2 {
		t.Fatalf("free list not persisted: got %d, want %d", id3, id2)
	}
	if re.NumPages() != 2 {
		t.Fatalf("NumPages = %d, want 2", re.NumPages())
	}
}

func TestOpenFileStoreBadMagic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "junk.pg")
	if err := os.WriteFile(path, make([]byte, PageSize), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileStore(path); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestDataFileAppendRead(t *testing.T) {
	s := NewMemStore()
	df := NewDataFile(s, s.Alloc)
	recs := [][]byte{
		[]byte("alpha"),
		[]byte("beta-longer-record"),
		bytes.Repeat([]byte{0xCD}, 1000),
	}
	addrs := make([]DataAddr, len(recs))
	for i, r := range recs {
		a, err := df.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = a
	}
	// Appends are write-combined: before the flush the store's copy of the
	// page holds none of them, and Read serves them from the append cache.
	page := make([]byte, PageSize)
	if err := df.ReadPageInto(addrs[0].Page, page); err != nil {
		t.Fatal(err)
	} else if _, err := RecordFromPage(page, addrs[0].Slot); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("unflushed record in the store's page: %v, want ErrBadSlot", err)
	}
	for flushed := range 2 {
		for i, a := range addrs {
			got, err := df.Read(a)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, recs[i]) {
				t.Fatalf("record %d mismatch (flushed %d)", i, flushed)
			}
		}
		if err := df.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// Small records share a page.
	if addrs[0].Page != addrs[1].Page {
		t.Fatal("small records did not share a page")
	}
}

func TestDataFilePageOverflow(t *testing.T) {
	s := NewMemStore()
	df := NewDataFile(s, s.Alloc)
	big := bytes.Repeat([]byte{1}, 1500)
	var pages []PageID
	for i := 0; i < 5; i++ {
		a, err := df.Append(big)
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, a.Page)
	}
	// 1500-byte records: two fit per 4096-byte page, so 5 records → 3 pages.
	distinct := map[PageID]bool{}
	for _, p := range pages {
		distinct[p] = true
	}
	if len(distinct) != 3 {
		t.Fatalf("got %d pages, want 3 (layout: %v)", len(distinct), pages)
	}
}

func TestDataFileTooLarge(t *testing.T) {
	s := NewMemStore()
	df := NewDataFile(s, s.Alloc)
	if _, err := df.Append(make([]byte, PageSize)); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("err = %v, want ErrRecordTooLarge", err)
	}
	// An empty record's slot would read as a deleted one.
	if _, err := df.Append(nil); err == nil {
		t.Fatal("empty record appended")
	}
}

// TestDataFileZeroLengthSlot: files written before deletes stopped touching
// the data file carry slots whose length was zeroed in place. Such a page
// still opens as the append page: the dead slot reads as ErrBadSlot, its
// neighbours are intact, and new records go after it without reusing its
// slot number or its bytes.
func TestDataFileZeroLengthSlot(t *testing.T) {
	s := NewMemStore()
	df := NewDataFile(s, s.Alloc)
	a, _ := df.Append([]byte("doomed"))
	b, _ := df.Append([]byte("survivor"))
	if err := df.Flush(); err != nil {
		t.Fatal(err)
	}
	page := make([]byte, PageSize)
	if err := df.ReadPageInto(a.Page, page); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(page[dataHeader+4*int(a.Slot)+2:], 0)
	if err := s.Write(a.Page, page); err != nil {
		t.Fatal(err)
	}

	df = OpenDataFileAt(s, s.Alloc, a.Page)
	c, err := df.Append([]byte("newcomer"))
	if err != nil {
		t.Fatal(err)
	}
	if err := df.Flush(); err != nil {
		t.Fatal(err)
	}
	if c.Page != a.Page || c.Slot != 2 {
		t.Fatalf("append after a dead slot went to %+v, want page %d slot 2", c, a.Page)
	}
	if _, err := df.Read(a); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("zero-length slot read: %v, want ErrBadSlot", err)
	}
	for addr, want := range map[DataAddr]string{b: "survivor", c: "newcomer"} {
		if got, err := df.Read(addr); err != nil || string(got) != want {
			t.Fatalf("record %+v: %q, %v; want %q", addr, got, err, want)
		}
	}
}

func TestDataFileReadPageGrouping(t *testing.T) {
	s := NewMemStore()
	df := NewDataFile(s, s.Alloc)
	a1, _ := df.Append([]byte("one"))
	a2, _ := df.Append([]byte("two"))
	if a1.Page != a2.Page {
		t.Fatal("expected same page")
	}
	if err := df.Flush(); err != nil {
		t.Fatal(err)
	}
	s.Stats().Reset()
	page := make([]byte, PageSize)
	if err := df.ReadPageInto(a1.Page, page); err != nil {
		t.Fatal(err)
	}
	r1, err := RecordFromPage(page, a1.Slot)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RecordFromPage(page, a2.Slot)
	if err != nil {
		t.Fatal(err)
	}
	if string(r1) != "one" || string(r2) != "two" {
		t.Fatalf("grouped read mismatch: %q %q", r1, r2)
	}
	reads, _, _, _ := s.Stats().Snapshot()
	if reads != 1 {
		t.Fatalf("grouped fetch used %d reads, want 1", reads)
	}
}

func TestDataFileBadSlot(t *testing.T) {
	s := NewMemStore()
	df := NewDataFile(s, s.Alloc)
	a, _ := df.Append([]byte("x"))
	if _, err := df.Read(DataAddr{Page: a.Page, Slot: 99}); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("err = %v, want ErrBadSlot", err)
	}
}

func TestDataFileManyRecordsStress(t *testing.T) {
	s := NewMemStore()
	df := NewDataFile(s, s.Alloc)
	rng := rand.New(rand.NewSource(6))
	type kept struct {
		addr DataAddr
		data []byte
	}
	var all []kept
	for i := 0; i < 2000; i++ {
		rec := make([]byte, 10+rng.Intn(200))
		rng.Read(rec)
		a, err := df.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, kept{a, rec})
	}
	if err := df.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, k := range all {
		got, err := df.Read(k.addr)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, k.data) {
			t.Fatalf("record %d corrupted", i)
		}
	}
}

// TestChaosStoreStickyCountdown: a sticky countdown rule lets n operations
// through and then fails every later one, of any kind, until disarmed.
func TestChaosStoreStickyCountdown(t *testing.T) {
	cs := NewChaosStore(NewMemStore(), 0)
	h := cs.MustAddRule(ChaosRule{Op: OpAny, Fault: FaultPermanent, Countdown: 2, Sticky: true})
	if _, err := cs.Alloc(); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Alloc(); err != nil {
		t.Fatal(err)
	}
	if h.Remaining() != 0 {
		t.Fatalf("remaining = %d after the countdown ran out, want 0", h.Remaining())
	}
	if _, err := cs.Alloc(); !errors.Is(err, ErrInjected) {
		t.Fatalf("third op: %v, want ErrInjected", err)
	}
	buf := make([]byte, PageSize)
	if err := cs.Read(0, buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("read after trip: %v", err)
	}
	if err := cs.Write(0, buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("write after trip: %v", err)
	}
	if h.Triggered() != 3 {
		t.Fatalf("triggered = %d, want 3", h.Triggered())
	}
	h.Arm(-1) // disarm
	if err := cs.Read(0, buf); err != nil {
		t.Fatalf("disarmed rule still failing: %v", err)
	}
	if h.Remaining() >= 0 {
		t.Fatalf("remaining = %d after disarm, want < 0", h.Remaining())
	}
}

func TestDataFileFaultPropagation(t *testing.T) {
	cs := NewChaosStore(NewMemStore(), 0)
	cs.MustAddRule(ChaosRule{Op: OpAny, Fault: FaultPermanent, Countdown: 0, Sticky: true})
	df := NewDataFile(cs, cs.Alloc)
	if _, err := df.Append([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("append under fault: %v", err)
	}
}

// FuzzOpenFileStore: the fuzzer's bytes as a store's header page — its
// payload, then its trailer — followed by two valid pages. With seal set
// the trailer is made valid, so the bytes get past the checksum to the
// magic, version and allocator fields. OpenFileStore must return
// ErrBadMagic, ErrOldFormat, an unsupported-version error or a
// *ChecksumError, or a store on which NumPages, reading pages 1 and 2, and
// Close all return; it never panics.
func FuzzOpenFileStore(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.pf")
	fs, err := CreateFileStore(path)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := fs.Alloc(); err != nil {
			f.Fatal(err)
		}
	}
	if err := fs.Close(); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	v2 := raw[:stride]
	v1 := append([]byte(nil), v2[:PageSize]...)
	binary.LittleEndian.PutUint32(v1[headerVersionOff:], 1)
	badMagic := append([]byte(nil), v2[:PageSize]...)
	badMagic[0] ^= 0xFF
	f.Add(v2, true)
	f.Add(v1, true)
	f.Add(badMagic, true)
	f.Add(v2[:PageSize+3], false) // torn trailer
	f.Fuzz(func(t *testing.T, header []byte, seal bool) {
		file := make([]byte, 3*stride)
		copy(file[:stride], header)
		sealPage := func(id PageID) {
			slot := file[int(id)*stride : int(id+1)*stride]
			binary.LittleEndian.PutUint32(slot[PageSize:], crc32.Checksum(slot[:PageSize], castagnoli))
			binary.LittleEndian.PutUint32(slot[PageSize+4:], uint32(id))
		}
		if seal {
			sealPage(0)
		}
		for id := PageID(1); id <= 2; id++ {
			copy(file[int(id)*stride:], bytes.Repeat([]byte{byte(id)}, PageSize))
			sealPage(id)
		}
		path := filepath.Join(t.TempDir(), "fuzz.pf")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		fs, err := OpenFileStore(path)
		if err != nil {
			unsupported := fmt.Sprintf("pagefile: unsupported format version %d", binary.LittleEndian.Uint32(file[headerVersionOff:]))
			var ce *ChecksumError
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrOldFormat) && !errors.As(err, &ce) && err.Error() != unsupported {
				t.Fatalf("OpenFileStore: unexpected error %v", err)
			}
			return
		}
		fs.NumPages()
		buf := make([]byte, PageSize)
		for id := PageID(1); id <= 2; id++ {
			_ = fs.Read(id, buf)
		}
		if err := fs.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	})
}
