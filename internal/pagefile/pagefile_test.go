package pagefile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
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
