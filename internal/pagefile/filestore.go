package pagefile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
)

// FileStore is a file-backed Store. Page 0 is a metadata page holding the
// magic, page count, free-list head and format version; user pages start
// at 1. Freed pages form an intrusive linked list threaded through their
// first four bytes, so a reopened file recovers its allocator state
// without a separate bitmap.
//
// The on-disk format is v2: each physical page slot is
// PageSize+pageTrailerSize bytes — the logical 4096-byte payload followed
// by a trailer holding a CRC32-C over the payload and an echo of the
// PageID. Write seals the trailer; Read verifies it and returns a
// *ChecksumError (matching ErrChecksum) on mismatch, and a *BadPageError
// when the ID echo shows the slot holds a different page (a misdirected
// write). The unchecksummed v1 format is refused with ErrOldFormat.
type FileStore struct {
	mu       sync.Mutex
	f        *os.File
	numPages int // total pages including the header
	freeHead PageID
	liveN    int
	scratch  []byte // stride-sized I/O staging buffer, under mu
	stats    Stats
}

const (
	fileMagic = 0x55545245 // "UTRE"

	// fileVersionV2 is the checksummed format. v1 files wrote 0 or 1 in
	// the version field.
	fileVersionV2 = 2

	// pageTrailerSize is the per-page integrity trailer of the v2 format:
	// CRC32-C over the payload (4 bytes) + PageID echo (4 bytes).
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
var ErrOldFormat = errors.New("pagefile: v1 page format (no page checksums); this version reads only v2 — rebuild the index")

func newFileStore(f *os.File) *FileStore {
	return &FileStore{f: f, numPages: 1, freeHead: InvalidPage, scratch: make([]byte, stride)}
}

// CreateFileStore creates (truncating) a file-backed store at path in the
// checksummed v2 format.
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

// OpenFileStore opens an existing v2 store. A v1 header (version field 0
// or 1) fails with ErrOldFormat.
func OpenFileStore(path string) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, PageSize)
	if _, err := f.ReadAt(buf, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("pagefile: reading header: %w", err)
	}
	if binary.LittleEndian.Uint32(buf[0:]) != fileMagic {
		f.Close()
		return nil, ErrBadMagic
	}
	switch version := binary.LittleEndian.Uint32(buf[headerVersionOff:]); version {
	case fileVersionV2:
	case 0, 1:
		f.Close()
		return nil, ErrOldFormat
	default:
		f.Close()
		return nil, fmt.Errorf("pagefile: unsupported format version %d", version)
	}
	fs := newFileStore(f)
	fs.numPages = int(binary.LittleEndian.Uint32(buf[4:]))
	fs.freeHead = PageID(binary.LittleEndian.Uint32(buf[8:]))
	fs.liveN = int(binary.LittleEndian.Uint32(buf[12:]))
	// The header page carries a trailer too; verify it before trusting the
	// allocator state we just decoded.
	if err := fs.verifyLocked(0); err != nil {
		f.Close()
		return nil, err
	}
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

// readPageLocked reads page id into buf (len PageSize), verifying the
// trailer. Caller holds fs.mu.
func (fs *FileStore) readPageLocked(id PageID, buf []byte) error {
	if err := fs.verifyLocked(id); err != nil {
		return err
	}
	copy(buf, fs.scratch[:PageSize])
	return nil
}

func (fs *FileStore) writeHeader() error {
	buf := make([]byte, PageSize)
	binary.LittleEndian.PutUint32(buf[0:], fileMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(fs.numPages))
	binary.LittleEndian.PutUint32(buf[8:], uint32(fs.freeHead))
	binary.LittleEndian.PutUint32(buf[12:], uint32(fs.liveN))
	binary.LittleEndian.PutUint32(buf[headerVersionOff:], fileVersionV2)
	return fs.writePageLocked(0, buf)
}

// Abort closes the file without writing the header — the crash-simulation
// exit: the file keeps exactly the pages individual operations already
// made durable, as if the process died.
func (fs *FileStore) Abort() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.f.Close()
}

// Close flushes the header and closes the file.
func (fs *FileStore) Close() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.writeHeader(); err != nil {
		fs.f.Close()
		return err
	}
	return fs.f.Close()
}

func (fs *FileStore) Alloc() (PageID, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.stats.Allocs.Add(1)
	zero := make([]byte, PageSize)
	if fs.freeHead != InvalidPage {
		id := fs.freeHead
		buf := make([]byte, PageSize)
		if err := fs.readPageLocked(id, buf); err != nil {
			return InvalidPage, err
		}
		fs.freeHead = PageID(binary.LittleEndian.Uint32(buf[0:]))
		if err := fs.writePageLocked(id, zero); err != nil {
			return InvalidPage, err
		}
		fs.liveN++
		return id, fs.writeHeader()
	}
	id := PageID(fs.numPages)
	if err := fs.writePageLocked(id, zero); err != nil {
		return InvalidPage, err
	}
	fs.numPages++
	fs.liveN++
	return id, fs.writeHeader()
}

func (fs *FileStore) checkRange(id PageID) error {
	if id == 0 || int(id) >= fs.numPages {
		return fmt.Errorf("%w: %d", ErrPageOutOfRange, id)
	}
	return nil
}

func (fs *FileStore) Read(id PageID, buf []byte) error {
	if len(buf) != PageSize {
		return ErrBadLength
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.checkRange(id); err != nil {
		return err
	}
	fs.stats.Reads.Add(1)
	return fs.readPageLocked(id, buf)
}

func (fs *FileStore) Write(id PageID, buf []byte) error {
	if len(buf) != PageSize {
		return ErrBadLength
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.checkRange(id); err != nil {
		return err
	}
	fs.stats.Writes.Add(1)
	return fs.writePageLocked(id, buf)
}

func (fs *FileStore) Free(id PageID) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.checkRange(id); err != nil {
		return err
	}
	fs.stats.Frees.Add(1)
	buf := make([]byte, PageSize)
	binary.LittleEndian.PutUint32(buf[0:], uint32(fs.freeHead))
	if err := fs.writePageLocked(id, buf); err != nil {
		return err
	}
	fs.freeHead = id
	fs.liveN--
	return fs.writeHeader()
}

// verifyLocked reads page id into fs.scratch and checks its trailer,
// without charging Stats. Caller holds fs.mu.
func (fs *FileStore) verifyLocked(id PageID) error {
	if _, err := fs.f.ReadAt(fs.scratch, fs.off(id)); err != nil {
		return err
	}
	want := binary.LittleEndian.Uint32(fs.scratch[PageSize:])
	got := crc32.Checksum(fs.scratch[:PageSize], castagnoli)
	if want != got {
		return &ChecksumError{Page: id, Want: want, Got: got}
	}
	if echo := PageID(binary.LittleEndian.Uint32(fs.scratch[PageSize+4:])); echo != id {
		return &BadPageError{Page: id, Reason: fmt.Sprintf("trailer names page %d (misdirected write)", echo)}
	}
	return nil
}

// VerifyPage implements PageVerifier: it checks the page's integrity
// trailer without returning contents and without charging the read to
// Stats, so scrubbing stays invisible to I/O-cost experiments.
func (fs *FileStore) VerifyPage(id PageID) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.checkRange(id); err != nil {
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
	if err := fs.checkRange(id); err != nil {
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
	if err := fs.checkRange(id); err != nil {
		return err
	}
	fs.stats.Writes.Add(1)
	_, err := fs.f.WriteAt(buf[:n], fs.off(id))
	return err
}

// SweepLeaked returns every page that is neither in `reachable` nor on the
// free list to the free list, and reports the ids it reclaimed. This is
// the open-time crash repair: a crash between an epoch's publication
// (metadata write) and its garbage drain leaves the superseded shadow
// pages allocated but unreferenced, and a crash mid-operation can leak
// fresh pages the aborted batch never published. The caller passes the
// set of pages reachable from the recovered root (nodes, data pages,
// metadata). Each leaked page is linked into the free list before the
// header is rewritten, so a crash mid-sweep at worst leaves some leaks for
// the next sweep — never a corrupt list.
//
// Free-list link pages are read without checksum verification: a page
// torn while being freed would otherwise wedge recovery, and the link
// threading is validated structurally (cycle and range checks) anyway.
func (fs *FileStore) SweepLeaked(reachable map[PageID]bool) ([]PageID, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	onFree := make(map[PageID]bool)
	var link [4]byte
	for id := fs.freeHead; id != InvalidPage; {
		if onFree[id] || id == 0 || int(id) >= fs.numPages {
			return nil, fmt.Errorf("pagefile: corrupt free list at page %d", id)
		}
		onFree[id] = true
		if _, err := fs.f.ReadAt(link[:], fs.off(id)); err != nil {
			return nil, err
		}
		id = PageID(binary.LittleEndian.Uint32(link[:]))
	}
	var leaked []PageID
	page := make([]byte, PageSize)
	for p := 1; p < fs.numPages; p++ {
		id := PageID(p)
		if reachable[id] || onFree[id] {
			continue
		}
		for i := range page {
			page[i] = 0
		}
		binary.LittleEndian.PutUint32(page[0:], uint32(fs.freeHead))
		if err := fs.writePageLocked(id, page); err != nil {
			return leaked, err
		}
		fs.freeHead = id
		fs.liveN--
		fs.stats.Frees.Add(1)
		leaked = append(leaked, id)
	}
	if len(leaked) == 0 {
		return nil, nil
	}
	return leaked, fs.writeHeader()
}

func (fs *FileStore) NumPages() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.liveN
}

func (fs *FileStore) Stats() *Stats { return &fs.stats }
