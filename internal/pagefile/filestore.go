package pagefile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
)

// FileStore is a file-backed Store. Page 0 is the header, written once
// when the file is created: the magic and the format version. User pages
// start at 1. The file holds pages and nothing else: the allocator (free
// pages, and pages allocated but not yet written, which read as zeros)
// lives in memory, so Alloc and Free do no I/O. A reopened file counts
// every page up to its length live until Retain frees the ones the tree
// does not reach.
//
// Each physical page slot is PageSize+pageTrailerSize bytes — the logical
// 4096-byte payload followed by a trailer holding a CRC32-C over the
// payload and an echo of the PageID. Write seals the trailer; Read
// verifies it and returns a *ChecksumError (matching ErrChecksum) on
// mismatch, and a *BadPageError when the ID echo shows the slot holds a
// different page (a misdirected write). The unchecksummed v1 format is
// refused with ErrOldFormat.
//
// On unix a FileStore also lends readers its written pages in place: View
// returns a page's payload inside a read-only shared mapping of the file,
// checked and counted as Read does, so a decoded node over it costs no
// copy and no heap of its own. Writes stay on pwrite; the mapping is
// coherent with them where the OS has one page cache for both (Linux,
// macOS). The file is mapped in regions that are only ever added, never
// remapped, and a region lives until the store is unreachable, not until
// Close: a lock-free reader may still hold a view when the file closes.
// Never truncate the file under an open store: a view of a page past the
// end faults, which View turns into ErrFault while it checks the page, but
// a view taken before the truncation faults when read. A page changed on
// the medium after its view was checked is read changed until Scrub finds
// it. Elsewhere FileStore has no View, and readers copy pages with Read.
type FileStore struct {
	mu      sync.Mutex
	f       *os.File
	ids     allocator
	v2      bool     // the header still says v2: restamp it before a page changes
	closed  bool     // Close has run: View refuses, as Read does
	scratch []byte   // stride-sized I/O staging buffer, under mu
	regions *regions // the read-only mapping View lends from (view_unix.go), under mu
	stats   Stats
}

const (
	fileMagic = 0x55545245 // "UTRE"

	// fileVersion is the format this store writes: checksummed pages and a
	// header of magic and version only. v2 files, whose header also held
	// the page count, live count and an on-disk free list, open as v3; v1
	// files wrote 0 or 1 in the version field.
	fileVersion   = 3
	fileVersionV2 = 2

	// pageTrailerSize is the per-page integrity trailer: CRC32-C over the
	// payload (4 bytes) + PageID echo (4 bytes).
	pageTrailerSize = 8

	// stride is the physical bytes one page occupies on disk.
	stride = PageSize + pageTrailerSize

	// headerVersionOff is the byte offset of the format version inside the
	// header page.
	headerVersionOff = 16
)

// castagnoli is the CRC32-C table (the polynomial with hardware support on
// both amd64 and arm64, and the one storage systems conventionally use).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrBadMagic is returned when opening a file that is not a page file.
var ErrBadMagic = errors.New("pagefile: bad magic (not a page file)")

// ErrOldFormat is returned when opening a page file in the unchecksummed
// v1 format. Such a file is never decoded: rebuild it from its data.
var ErrOldFormat = errors.New("pagefile: v1 page format (no page checksums); rebuild the index")

func newFileStore(f *os.File) *FileStore {
	return &FileStore{f: f, ids: allocator{first: 1}, scratch: make([]byte, stride)}
}

// CreateFileStore creates (truncating) a file-backed store at path.
func CreateFileStore(path string) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	fs := newFileStore(f)
	if err := fs.writeHeader(); err != nil {
		f.Close()
		return nil, err
	}
	return fs, nil
}

// OpenFileStore opens an existing store. Every page up to the file's
// length is live. A v2 header is restamped v3 before the first page
// changes: this store keeps no free list on disk, so a reader of v2 must
// then refuse the file rather than follow the one its header names. A v1
// header (version field 0 or 1) fails with ErrOldFormat.
func OpenFileStore(path string) (fs *FileStore, err error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	buf := make([]byte, PageSize)
	if _, err := f.ReadAt(buf, 0); err != nil {
		return nil, fmt.Errorf("pagefile: reading header: %w", err)
	}
	if binary.LittleEndian.Uint32(buf[0:]) != fileMagic {
		return nil, ErrBadMagic
	}
	version := binary.LittleEndian.Uint32(buf[headerVersionOff:])
	switch version {
	case fileVersion, fileVersionV2:
	case 0, 1:
		return nil, ErrOldFormat
	default:
		return nil, fmt.Errorf("pagefile: unsupported format version %d", version)
	}
	fs = newFileStore(f)
	// The header page carries a trailer too.
	if err := fs.verifyLocked(0); err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	fs.ids.state = bytes.Repeat([]byte{pageWritten}, int(st.Size()/stride)-1)
	fs.ids.live = len(fs.ids.state)
	fs.v2 = version == fileVersionV2
	return fs, nil
}

func (fs *FileStore) off(id PageID) int64 { return int64(id) * stride }

// writePageLocked persists buf (len PageSize) as page id, sealing the
// trailer. Caller holds fs.mu.
func (fs *FileStore) writePageLocked(id PageID, buf []byte) error {
	copy(fs.scratch, buf)
	binary.LittleEndian.PutUint32(fs.scratch[PageSize:], crc32.Checksum(buf, castagnoli))
	binary.LittleEndian.PutUint32(fs.scratch[PageSize+4:], uint32(id))
	_, err := fs.f.WriteAt(fs.scratch, fs.off(id))
	return err
}

func (fs *FileStore) writeHeader() error {
	buf := make([]byte, PageSize)
	binary.LittleEndian.PutUint32(buf[0:], fileMagic)
	binary.LittleEndian.PutUint32(buf[headerVersionOff:], fileVersion)
	return fs.writePageLocked(0, buf)
}

// Close closes the file. It writes nothing: a page is in the file once its
// Write returns, and the allocator is not persisted.
func (fs *FileStore) Close() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.closed = true
	return fs.f.Close()
}

// Alloc reserves a page. It does no I/O: the page reads as zeros until
// its first Write.
func (fs *FileStore) Alloc() (PageID, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.stats.Allocs.Add(1)
	return fs.ids.alloc(), nil
}

// touchLocked readies live page id for a change on the medium and marks
// it written, restamping a v2 header first (see OpenFileStore). A reserved
// page has no bytes there yet; unless the change covers the whole page, it
// is first written as the sealed zero page it reads as, so a torn write or
// a flipped bit lands on the bytes a Read returned. Caller holds fs.mu.
func (fs *FileStore) touchLocked(id PageID, whole bool) error {
	st, err := fs.ids.check(id)
	if err != nil {
		return err
	}
	if fs.v2 {
		if err := fs.writeHeader(); err != nil {
			return err
		}
		fs.v2 = false
	}
	fs.ids.state[id-fs.ids.first] = pageWritten
	if st == pageReserved && !whole {
		return fs.writePageLocked(id, make([]byte, PageSize))
	}
	return nil
}

func (fs *FileStore) Read(id PageID, buf []byte) error {
	if len(buf) != PageSize {
		return ErrBadLength
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	st, err := fs.ids.check(id)
	if err != nil {
		return err
	}
	fs.stats.Reads.Add(1)
	if st == pageReserved {
		clear(buf)
		return nil
	}
	if err := fs.verifyLocked(id); err != nil {
		return err
	}
	copy(buf, fs.scratch[:PageSize])
	return nil
}

func (fs *FileStore) Write(id PageID, buf []byte) error {
	if len(buf) != PageSize {
		return ErrBadLength
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.touchLocked(id, true); err != nil {
		return err
	}
	fs.stats.Writes.Add(1)
	return fs.writePageLocked(id, buf)
}

// Free returns the page to the allocator. It does no I/O.
func (fs *FileStore) Free(id PageID) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.ids.release(id); err != nil {
		return err
	}
	fs.stats.Frees.Add(1)
	return nil
}

// verifyLocked reads page id into fs.scratch and checks its trailer,
// without charging Stats. Caller holds fs.mu.
func (fs *FileStore) verifyLocked(id PageID) error {
	if _, err := fs.f.ReadAt(fs.scratch, fs.off(id)); err != nil {
		return err
	}
	return checkSlot(id, fs.scratch)
}

// checkSlot checks page id's slot, its payload then its trailer: the CRC
// must cover the payload and the echo name the page.
func checkSlot(id PageID, slot []byte) error {
	want := binary.LittleEndian.Uint32(slot[PageSize:])
	got := crc32.Checksum(slot[:PageSize], castagnoli)
	if want != got {
		return &ChecksumError{Page: id, Want: want, Got: got}
	}
	if echo := PageID(binary.LittleEndian.Uint32(slot[PageSize+4:])); echo != id {
		return &BadPageError{Page: id, Reason: fmt.Sprintf("trailer names page %d (misdirected write)", echo)}
	}
	return nil
}

// VerifyPage implements PageVerifier: it checks the page's integrity
// trailer without returning contents and without charging the read to
// Stats, so scrubbing stays invisible to I/O-cost experiments. A reserved
// page verifies trivially: it is a zero page with nothing on the medium.
func (fs *FileStore) VerifyPage(id PageID) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	st, err := fs.ids.check(id)
	if err != nil || st == pageReserved {
		return err
	}
	return fs.verifyLocked(id)
}

// CorruptPayload implements Corrupter: flips one payload bit on disk
// WITHOUT resealing the trailer, modelling silent media corruption: the
// next Read of the page returns a *ChecksumError.
func (fs *FileStore) CorruptPayload(id PageID, bit int) error {
	if bit < 0 || bit >= PageSize*8 {
		return fmt.Errorf("pagefile: corrupt bit %d out of range", bit)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.touchLocked(id, false); err != nil {
		return err
	}
	var b [1]byte
	off := fs.off(id) + int64(bit/8)
	if _, err := fs.f.ReadAt(b[:], off); err != nil {
		return err
	}
	b[0] ^= 1 << (bit % 8)
	_, err := fs.f.WriteAt(b[:], off)
	return err
}

// WriteTorn implements TornWriter: persists only the first n bytes of
// buf, leaving the page tail AND the trailer at their previous contents —
// a torn write. The stale trailer no longer covers the mixed payload, so
// the tear is detected on the next Read.
func (fs *FileStore) WriteTorn(id PageID, buf []byte, n int) error {
	if len(buf) != PageSize {
		return ErrBadLength
	}
	if n < 0 || n > PageSize {
		return fmt.Errorf("pagefile: torn length %d out of range", n)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.touchLocked(id, false); err != nil {
		return err
	}
	fs.stats.Writes.Add(1)
	_, err := fs.f.WriteAt(buf[:n], fs.off(id))
	return err
}

// Retain frees every live page not in reachable: the open-time repair,
// after core.Open's walk has found the pages the committed tree reaches
// (nodes, data pages, metadata). What it frees is the previous session's
// free pages and what a crash leaked — shadow pages retired by a
// published epoch that died before its garbage drained, and fresh pages of
// an aborted batch. It does no I/O and counts no Frees.
func (fs *FileStore) Retain(reachable map[PageID]bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.ids.retain(reachable)
}

func (fs *FileStore) NumPages() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.ids.live
}

func (fs *FileStore) Stats() *Stats { return &fs.stats }
