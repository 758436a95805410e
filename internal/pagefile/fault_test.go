package pagefile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// fillPage returns a page-sized buffer with a recognizable pattern.
func fillPage(seed byte) []byte {
	buf := make([]byte, PageSize)
	for i := range buf {
		buf[i] = seed + byte(i%251)
	}
	return buf
}

func TestFileStoreChecksumRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v2.pg")
	fs, err := CreateFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	id, err := fs.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	want := fillPage(7)
	if err := fs.Write(id, want); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	fs, err = OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	got := make([]byte, PageSize)
	if err := fs.Read(id, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("payload corrupted across reopen")
	}
	if err := fs.VerifyPage(id); err != nil {
		t.Fatalf("VerifyPage on intact page: %v", err)
	}
}

func TestFileStoreDetectsBitFlip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v2.pg")
	fs, err := CreateFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	id, _ := fs.Alloc()
	if err := fs.Write(id, fillPage(3)); err != nil {
		t.Fatal(err)
	}
	if err := fs.CorruptPayload(id, 12345); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	err = fs.Read(id, buf)
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("read of corrupt page: %v, want ErrChecksum", err)
	}
	var ce *ChecksumError
	if !errors.As(err, &ce) || ce.Page != id || ce.Want == ce.Got {
		t.Fatalf("checksum error detail wrong: %+v", ce)
	}
	if err := fs.VerifyPage(id); !errors.Is(err, ErrChecksum) {
		t.Fatalf("VerifyPage on corrupt page: %v, want ErrChecksum", err)
	}
}

func TestFileStoreDetectsTornWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v2.pg")
	fs, err := CreateFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	id, _ := fs.Alloc()
	if err := fs.Write(id, fillPage(1)); err != nil {
		t.Fatal(err)
	}
	// A torn write persists half the new page over the old one; the stale
	// trailer no longer matches.
	if err := fs.WriteTorn(id, fillPage(99), PageSize/2); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	if err := fs.Read(id, buf); !errors.Is(err, ErrChecksum) {
		t.Fatalf("read of torn page: %v, want ErrChecksum", err)
	}
}

// TestOpenFileStoreRefusesV1 writes a v1 header by hand — the magic with
// a version field of 0 (files from before the field existed) or 1 — and
// checks that OpenFileStore refuses it with ErrOldFormat.
func TestOpenFileStoreRefusesV1(t *testing.T) {
	for _, version := range []uint32{0, 1} {
		header := make([]byte, PageSize)
		binary.LittleEndian.PutUint32(header[0:], fileMagic)
		binary.LittleEndian.PutUint32(header[4:], 1) // page count: the header
		binary.LittleEndian.PutUint32(header[8:], uint32(InvalidPage))
		binary.LittleEndian.PutUint32(header[headerVersionOff:], version)
		path := filepath.Join(t.TempDir(), "v1.pg")
		if err := os.WriteFile(path, header, 0o644); err != nil {
			t.Fatal(err)
		}
		fs, err := OpenFileStore(path)
		if !errors.Is(err, ErrOldFormat) {
			if fs != nil {
				fs.Close()
			}
			t.Fatalf("version %d header: OpenFileStore = %v, want ErrOldFormat", version, err)
		}
	}
}

// TestOpenFileStoreV2: a v2 file opens with its pages, its header's
// page count, free-list head and live count ignored. Reads leave the file
// as it was; the first page write restamps it v3, so that a reader of v2
// refuses it rather than follow that free list.
func TestOpenFileStoreV2(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v2.pg")
	fs, err := CreateFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := fs.Alloc()
	if err := fs.Write(id, fillPage(3)); err != nil {
		t.Fatal(err)
	}
	fs.Close()
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	header := file[:PageSize]
	binary.LittleEndian.PutUint32(header[4:], 7)  // page count
	binary.LittleEndian.PutUint32(header[8:], 5)  // free-list head
	binary.LittleEndian.PutUint32(header[12:], 9) // live count
	binary.LittleEndian.PutUint32(header[headerVersionOff:], fileVersionV2)
	binary.LittleEndian.PutUint32(file[PageSize:], crc32.Checksum(header, castagnoli))
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	if err := re.Read(id, buf); err != nil || !bytes.Equal(buf, fillPage(3)) || re.NumPages() != 1 {
		t.Fatalf("v2 file: read %v, %d pages, want page %d intact and 1 page", err, re.NumPages(), id)
	}
	next, _ := re.Alloc()
	if next != id+1 {
		t.Fatalf("Alloc on a v2 file = %d, want %d", next, id+1)
	}
	version := func() uint32 {
		t.Helper()
		header := make([]byte, 4)
		if _, err := re.f.ReadAt(header, headerVersionOff); err != nil {
			t.Fatal(err)
		}
		return binary.LittleEndian.Uint32(header)
	}
	if v := version(); v != fileVersionV2 {
		t.Fatalf("header version %d after a read and an alloc, want 2", v)
	}
	if err := re.Write(next, fillPage(4)); err != nil {
		t.Fatal(err)
	}
	if v := version(); v != fileVersion {
		t.Fatalf("header version %d after a write, want %d", v, fileVersion)
	}
	re.Close()
}
