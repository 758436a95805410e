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

// TestStoreErrors: both stores refuse a page out of range, a short
// buffer, and every use of a freed page — a second Free, Read, Write and
// VerifyPage — with ErrPageFreed.
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
		if err := s.Write(id, buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := s.Free(id); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := s.Free(id); !errors.Is(err, ErrPageFreed) {
			t.Errorf("%s: double free: %v", name, err)
		}
		if err := s.Read(id, buf); !errors.Is(err, ErrPageFreed) {
			t.Errorf("%s: read of freed page: %v", name, err)
		}
		if err := s.Write(id, buf); !errors.Is(err, ErrPageFreed) {
			t.Errorf("%s: write of freed page: %v", name, err)
		}
		if err := s.(PageVerifier).VerifyPage(id); !errors.Is(err, ErrPageFreed) {
			t.Errorf("%s: verify of freed page: %v", name, err)
		}
		a, _ := s.Alloc()
		b, _ := s.Alloc()
		if a != id || b == id {
			t.Errorf("%s: after one free, Alloc returned %d and %d, want %d and a new page", name, a, b, id)
		}
	}
}

// TestFileStoreReservedPage: a file page allocated and not yet written has
// no bytes on the medium. It reads as zeros and verifies; a torn write or
// a flipped bit acts on the sealed zero page it reads as, so the next Read
// detects either with ErrChecksum.
func TestFileStoreReservedPage(t *testing.T) {
	fs, err := CreateFileStore(filepath.Join(t.TempDir(), "reserved.pg"))
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	buf := make([]byte, PageSize)
	torn, _ := fs.Alloc()
	flipped, _ := fs.Alloc()
	for _, id := range []PageID{torn, flipped} {
		if err := fs.VerifyPage(id); err != nil {
			t.Fatalf("verify of reserved page %d: %v", id, err)
		}
		copy(buf, fillPage(7))
		if err := fs.Read(id, buf); err != nil || !bytes.Equal(buf, make([]byte, PageSize)) {
			t.Fatalf("read of reserved page %d: %v, or not zeros", id, err)
		}
	}
	if err := fs.WriteTorn(torn, fillPage(9), PageSize/2); err != nil {
		t.Fatal(err)
	}
	if err := fs.CorruptPayload(flipped, 100); err != nil {
		t.Fatal(err)
	}
	for _, id := range []PageID{torn, flipped} {
		if err := fs.Read(id, buf); !errors.Is(err, ErrChecksum) {
			t.Fatalf("read of page %d: %v, want ErrChecksum", id, err)
		}
		if err := fs.VerifyPage(id); !errors.Is(err, ErrChecksum) {
			t.Fatalf("verify of page %d: %v, want ErrChecksum", id, err)
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
	fs.Write(id2, in)
	fs.Free(id2)
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	// The file keeps no free list: every page up to its length is live
	// until Retain frees the ones its owner does not reach.
	re, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NumPages() != 2 {
		t.Fatalf("reopened NumPages = %d, want 2", re.NumPages())
	}
	re.Retain(map[PageID]bool{id1: true})
	out := make([]byte, PageSize)
	if err := re.Read(id1, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(in, out) {
		t.Fatal("data lost across reopen")
	}
	// The page Retain freed must be recycled before extending the file.
	id3, _ := re.Alloc()
	if id3 != id2 {
		t.Fatalf("unreached page not recycled: got %d, want %d", id3, id2)
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

// FuzzOpenFileStore: the fuzzer's bytes as a store's header page — its
// payload, then its trailer — followed by two valid pages, the file then
// cut short by cut bytes (at most all of page 2 and most of page 1). With
// seal set the trailer is made valid, so the bytes get past the checksum to
// the magic and version. OpenFileStore must return ErrBadMagic,
// ErrOldFormat, an unsupported-version error, a *ChecksumError or, for a
// trailer whose checksum holds but whose echo names another page, a
// *BadPageError naming page 0, or a store whose NumPages is the file's
// whole pages after the header — the
// header's other fields are never read — and on which reading pages 1 and
// 2 and Close return; it never panics.
func FuzzOpenFileStore(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.pf")
	fs, err := CreateFileStore(path)
	if err != nil {
		f.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	v3 := raw[:stride]
	v2 := append([]byte(nil), v3[:PageSize]...)
	binary.LittleEndian.PutUint32(v2[headerVersionOff:], fileVersionV2)
	for i := 4; i < headerVersionOff; i++ {
		v2[i] = 0xA5 // page count, free-list head and live count: garbage
	}
	v1 := append([]byte(nil), v3[:PageSize]...)
	binary.LittleEndian.PutUint32(v1[headerVersionOff:], 1)
	badMagic := append([]byte(nil), v3[:PageSize]...)
	badMagic[0] ^= 0xFF
	misdirected := append([]byte(nil), v3...)
	binary.LittleEndian.PutUint32(misdirected[PageSize+4:], 128)
	f.Add(v3, true, uint16(0))
	f.Add(v3, true, uint16(stride+100)) // page 2 gone, page 1 cut short
	f.Add(v2, true, uint16(0))
	f.Add(v1, true, uint16(0))
	f.Add(badMagic, true, uint16(0))
	f.Add(v3[:PageSize+3], false, uint16(0)) // torn trailer
	f.Add(misdirected, false, uint16(0))     // the echo names page 128
	f.Fuzz(func(t *testing.T, header []byte, seal bool, cut uint16) {
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
		file = file[:len(file)-int(cut)%(2*stride)]
		path := filepath.Join(t.TempDir(), "fuzz.pf")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		fs, err := OpenFileStore(path)
		if err != nil {
			unsupported := fmt.Sprintf("pagefile: unsupported format version %d", binary.LittleEndian.Uint32(file[headerVersionOff:]))
			var ce *ChecksumError
			var bad *BadPageError
			misdirected := errors.As(err, &bad) && bad.Page == 0 && binary.LittleEndian.Uint32(file[PageSize+4:]) != 0
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrOldFormat) && !errors.As(err, &ce) && !misdirected && err.Error() != unsupported {
				t.Fatalf("OpenFileStore: unexpected error %v", err)
			}
			return
		}
		if n, want := fs.NumPages(), len(file)/stride-1; n != want {
			t.Fatalf("NumPages = %d for a file of %d bytes, want %d", n, len(file), want)
		}
		buf := make([]byte, PageSize)
		for id := PageID(1); id <= 2; id++ {
			_ = fs.Read(id, buf)
		}
		if err := fs.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	})
}
