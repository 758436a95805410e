package pagefile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// DataFile stores variable-length object-detail records in slotted pages:
// to this package opaque bytes, to the tree an object id and either its
// pdf's parameters or, for an object whose shape the tree's shape table
// holds, a shape reference and a centre (core's encodeObject). U-tree leaf
// entries keep a DataAddr; the refinement step groups candidates by page so
// each data page is read once per query — exactly the paper's "elements in
// S_can are first grouped by their associated disk addresses".
//
// Appends are write-combined: the current append page is cached in memory
// and mutated there, and Flush writes it to the store once — so a group
// commit of N inserts costs one data-page write, not N read-modify-writes.
// ReadPageInto always goes to the store (Read serves the append page's
// records from the cache); the owner flushes before every commit, so snapshot
// readers — lock-free on committed pages — never race the cache.
//
// Records are write-once: nothing rewrites a page the file has stopped
// appending to, and deleting an object leaves its record where it is. The
// slot directory is therefore not a liveness oracle — a record is live
// exactly when a leaf entry references it.
type DataFile struct {
	mu      sync.Mutex
	store   Store
	alloc   func() (PageID, error) // allocates each new append page
	current PageID                 // page still accepting appends; InvalidPage when none
	buf     []byte                 // cached copy of current; nil until first append needs it
	dirty   bool                   // buf has mutations the store has not seen
}

// DataAddr is the disk address of one record.
type DataAddr struct {
	Page PageID
	Slot uint16
}

// Errors returned by DataFile.
var (
	ErrRecordTooLarge = errors.New("pagefile: record exceeds page capacity")
	ErrBadSlot        = errors.New("pagefile: slot out of range or deleted")
)

// Slotted page layout:
//
//	[0:2)  count  — number of slots
//	[2:4)  free   — offset of free space start
//	then per slot i: [4+4i : 4+4i+2) offset, [4+4i+2 : 4+4i+4) length
//	(length 0 is never written; RecordFromPage says what reading one means)
//	records grow upward from the slot directory's end.
const dataHeader = 4

// NewDataFile creates a data file on the given store, whose new pages
// alloc allocates (store.Alloc, or an owner's method that also records
// them, as core's tree does).
func NewDataFile(store Store, alloc func() (PageID, error)) *DataFile {
	return OpenDataFileAt(store, alloc, InvalidPage)
}

// OpenDataFileAt resumes appending to an existing data file whose last page
// is `last` (InvalidPage for none).
func OpenDataFileAt(store Store, alloc func() (PageID, error), last PageID) *DataFile {
	return &DataFile{store: store, alloc: alloc, current: last}
}

// CurrentPage exposes the append page (persisted by index headers).
func (df *DataFile) CurrentPage() PageID {
	df.mu.Lock()
	defer df.mu.Unlock()
	return df.current
}

// SetCurrent rewinds the append page and drops the append cache — the
// rollback path: a failed batch may have advanced current to a page the
// rollback then frees, and may have buffered appends that must not reach
// the store. The next Append re-reads the committed page bytes (every
// commit flushes first, so the store copy is the committed truth). Records
// a failed batch already flushed stay as unreferenced slots; later appends
// go after them (the slot directory lives in the page itself), so
// committed addresses never change.
func (df *DataFile) SetCurrent(id PageID) {
	df.mu.Lock()
	df.current = id
	df.buf = nil
	df.dirty = false
	df.mu.Unlock()
}

// Flush writes the cached append page through to the store if it has
// unflushed mutations. The owner calls it before commit (durability);
// snapshot reads never need it.
func (df *DataFile) Flush() error {
	df.mu.Lock()
	defer df.mu.Unlock()
	return df.flushLocked()
}

func (df *DataFile) flushLocked() error {
	if !df.dirty {
		return nil
	}
	if err := df.store.Write(df.current, df.buf); err != nil {
		return err
	}
	df.dirty = false
	return nil
}

// Append stores rec in the in-memory append cache and returns its address;
// the bytes reach the store at the next Flush. Empty records and records
// larger than a page's usable space are rejected.
func (df *DataFile) Append(rec []byte) (DataAddr, error) {
	if len(rec) == 0 {
		return DataAddr{}, errors.New("pagefile: empty record (its slot would read as deleted)")
	}
	need := len(rec) + 4 // record + slot entry
	if dataHeader+need > PageSize {
		return DataAddr{}, fmt.Errorf("%w: %d bytes", ErrRecordTooLarge, len(rec))
	}
	df.mu.Lock()
	defer df.mu.Unlock()
	if df.current != InvalidPage {
		if df.buf == nil {
			buf := make([]byte, PageSize)
			if err := df.store.Read(df.current, buf); err != nil {
				return DataAddr{}, err
			}
			df.buf = buf
		}
		if addr, ok := df.tryAppend(rec); ok {
			return addr, nil
		}
		// Current page is full: flush it before moving on, or its last
		// buffered records would be lost when the cache moves to a new page.
		if err := df.flushLocked(); err != nil {
			return DataAddr{}, err
		}
	}
	id, err := df.alloc()
	if err != nil {
		return DataAddr{}, err
	}
	buf := make([]byte, PageSize)
	binary.LittleEndian.PutUint16(buf[2:], PageSize) // free space grows down
	df.current = id
	df.buf = buf
	addr, ok := df.tryAppend(rec)
	if !ok {
		return DataAddr{}, ErrRecordTooLarge
	}
	return addr, nil
}

// tryAppend places rec in the cached page if it fits; caller holds df.mu.
func (df *DataFile) tryAppend(rec []byte) (DataAddr, bool) {
	buf := df.buf
	count := int(binary.LittleEndian.Uint16(buf[0:]))
	free := int(binary.LittleEndian.Uint16(buf[2:]))
	if free == 0 {
		free = PageSize
	}
	dirEnd := dataHeader + 4*(count+1)
	if free-len(rec) < dirEnd {
		return DataAddr{}, false
	}
	off := free - len(rec)
	copy(buf[off:], rec)
	binary.LittleEndian.PutUint16(buf[dataHeader+4*count:], uint16(off))
	binary.LittleEndian.PutUint16(buf[dataHeader+4*count+2:], uint16(len(rec)))
	binary.LittleEndian.PutUint16(buf[0:], uint16(count+1))
	binary.LittleEndian.PutUint16(buf[2:], uint16(off))
	df.dirty = true
	return DataAddr{Page: df.current, Slot: uint16(count)}, true
}

// Read returns one record, in a buffer of its own: from the append cache if
// it is on the append page, which the store may not have seen yet.
func (df *DataFile) Read(addr DataAddr) ([]byte, error) {
	df.mu.Lock()
	if addr.Page == df.current && df.buf != nil {
		rec, err := RecordFromPage(df.buf, addr.Slot)
		df.mu.Unlock()
		return append([]byte(nil), rec...), err
	}
	df.mu.Unlock()
	buf := make([]byte, PageSize)
	if err := df.store.Read(addr.Page, buf); err != nil {
		return nil, err
	}
	return RecordFromPage(buf, addr.Slot)
}

// ReadPageInto reads data page id into buf, PageSize bytes the caller
// owns, in one I/O; use RecordFromPage to extract multiple candidates that
// share the page. The query paths read into their pooled page, which holds
// one data page at a time and is done with it once its records are
// decoded.
func (df *DataFile) ReadPageInto(id PageID, buf []byte) error {
	return df.store.Read(id, buf)
}

// RecordFromPage extracts slot `slot` from a page previously read by
// ReadPageInto, without further I/O and without a copy: the record where it
// lies in the page, for the caller that holds the page (the query paths
// decode a record and are done with it). Read is the form whose result is the
// caller's to keep. Whatever the bytes, it never reads past buf: a slot it
// cannot return is ErrBadSlot.
func RecordFromPage(buf []byte, slot uint16) ([]byte, error) {
	ent := dataHeader + 4*int(slot) // the slot's directory entry
	if ent+4 > len(buf) || slot >= binary.LittleEndian.Uint16(buf) {
		return nil, fmt.Errorf("%w: slot %d beyond the slot table", ErrBadSlot, slot)
	}
	off := int(binary.LittleEndian.Uint16(buf[ent:]))
	ln := int(binary.LittleEndian.Uint16(buf[ent+2:]))
	// A zero length is a tombstone from a file written before deletes
	// stopped touching the data file (or corruption); a leaf entry never
	// points at one.
	if ln == 0 {
		return nil, fmt.Errorf("%w: slot %d deleted", ErrBadSlot, slot)
	}
	if off+ln > len(buf) {
		return nil, fmt.Errorf("%w: corrupt slot %d (off=%d len=%d)", ErrBadSlot, slot, off, ln)
	}
	return buf[off : off+ln : off+ln], nil
}
