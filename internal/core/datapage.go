package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/pagefile"
)

// Data pages hold the objects' detail records (object.go) in slots. U-tree
// leaf entries keep a DataAddr; the refinement step groups candidates by
// page so each data page is read once per query — exactly the paper's
// "elements in S_can are first grouped by their associated disk
// addresses".
//
// The tree appends to one page at a time, the append page. Its bytes stay
// in memory, the writer's alone: an append writes into them and puts the
// page in the dirty map, and Commit writes it with the batch's node pages —
// so a batch of N inserts costs one data-page write, not N. A page that
// fills stays in the map, and the next append allocates a fresh page.
//
// Records are write-once: nothing rewrites a page the tree has stopped
// appending to, and deleting an object leaves its record where it is. The
// slot directory is therefore not a liveness oracle — a record is live
// exactly when a leaf entry references it.
//
// Dense page layout (little endian), every data page written since UTR8:
//
//	[0:2)  count | denseFlag — number of slots, the top bit set
//	[2:4)  free  — offset of free space start (0 on a page with no slot)
//	then per slot i: [4+2i : 4+2i+2) offset
//	records grow down from the page's end towards the slot table, so the
//	offsets strictly decrease: record i is [offset i, offset i−1), record 0
//	ends at the page's end. Its object id is a varint (object.go).
//
// A UTR2–UTR7 file's pages have no flag and a 4-byte slot — offset, then
// length, 0 for a record an older writer deleted — and u64 object ids. They
// are read, never appended to: the first append after opening such a file
// starts a fresh page.
const (
	dataHeader = 4
	denseFlag  = 1 << 15
)

// DataAddr is the disk address of one record.
type DataAddr struct {
	Page pagefile.PageID
	Slot uint16
}

// Errors of the data pages.
var (
	ErrRecordTooLarge = errors.New("core: record exceeds page capacity")
	ErrBadSlot        = errors.New("core: slot out of range or deleted")
)

// newDataPage returns an empty dense data page.
func newDataPage() []byte {
	page := make([]byte, pagefile.PageSize)
	binary.LittleEndian.PutUint16(page, denseFlag)
	return page
}

// appendSlot makes room for an n-byte record on the dense data page if it
// fits, and returns its slot and the bytes to write it into. A legacy page
// takes none.
func appendSlot(page []byte, n int) (uint16, []byte, bool) {
	word := binary.LittleEndian.Uint16(page)
	count := int(word &^ denseFlag)
	free := int(binary.LittleEndian.Uint16(page[2:]))
	if free == 0 {
		free = pagefile.PageSize
	}
	off := free - n
	if word&denseFlag == 0 || off < dataHeader+2*(count+1) {
		return 0, nil, false
	}
	binary.LittleEndian.PutUint16(page[dataHeader+2*count:], uint16(off))
	binary.LittleEndian.PutUint16(page, uint16(count+1)|denseFlag)
	binary.LittleEndian.PutUint16(page[2:], uint16(off))
	return uint16(count), page[off : off+n : off+n], true
}

// RecordFromPage extracts slot `slot` from a data page without a copy: the
// record where it lies in the page, for the caller that holds the page
// (the query paths decode a record and are done with it), and whether the
// page is a legacy one, whose records hold u64 ids (decodeObject). Whatever
// the bytes, it never reads past page: a slot it cannot return is
// ErrBadSlot — on a dense page also one whose offset is not below the one
// before it (the page's end for slot 0) or lies in the slot table.
func RecordFromPage(page []byte, slot uint16) (rec []byte, legacy bool, err error) {
	if len(page) < dataHeader {
		return nil, false, fmt.Errorf("%w: a %d-byte page", ErrBadSlot, len(page))
	}
	word := binary.LittleEndian.Uint16(page)
	count, legacy := word&^denseFlag, word&denseFlag == 0
	if legacy {
		ent := dataHeader + 4*int(slot)
		if ent+4 > len(page) || slot >= count {
			return nil, true, fmt.Errorf("%w: slot %d beyond the slot table", ErrBadSlot, slot)
		}
		off := int(binary.LittleEndian.Uint16(page[ent:]))
		ln := int(binary.LittleEndian.Uint16(page[ent+2:]))
		// A zero length is a tombstone from a file written before deletes
		// stopped touching the data pages (or corruption); a leaf entry
		// never points at one.
		if ln == 0 {
			return nil, true, fmt.Errorf("%w: slot %d deleted", ErrBadSlot, slot)
		}
		if off+ln > len(page) {
			return nil, true, fmt.Errorf("%w: corrupt slot %d (off=%d len=%d)", ErrBadSlot, slot, off, ln)
		}
		return page[off : off+ln : off+ln], true, nil
	}
	table := dataHeader + 2*int(count) // the slot table's end
	if slot >= count || table > len(page) {
		return nil, false, fmt.Errorf("%w: slot %d beyond the slot table", ErrBadSlot, slot)
	}
	ent := dataHeader + 2*int(slot)
	off, end := int(binary.LittleEndian.Uint16(page[ent:])), pagefile.PageSize
	if slot > 0 {
		end = int(binary.LittleEndian.Uint16(page[ent-2:]))
	}
	if off < table || off >= end || end > len(page) {
		return nil, false, fmt.Errorf("%w: corrupt slot %d (off=%d end=%d)", ErrBadSlot, slot, off, end)
	}
	return page[off:end:end], false, nil
}

// appendRecord appends the object's data record — keyed by its shape
// reference where encodeObject can, written straight into the page — and
// returns its address.
func (t *Tree) appendRecord(o Object, shape uint16) (DataAddr, error) {
	if shape != 0 && t.shapes[shape-1].fit.Recentrer() != nil {
		var ctr [24]byte // a 3-D centre's bytes, on the stack
		return t.appendKeyed(o.ID, shape, appendCentre(ctr[:0], o.PDF.Center()))
	}
	rec, err := encodeObject(o, shape, t.shapes)
	if err != nil {
		return DataAddr{}, err
	}
	return t.appendData(rec)
}

// appendKeyed appends the keyed record of object id, of recentrable shape
// ref and centred at ctr's bytes (appendCentre's; BulkLoad copies them off
// the centre entry), and returns its address.
func (t *Tree) appendKeyed(id int64, ref uint16, ctr []byte) (DataAddr, error) {
	addr, rec, err := t.appendSpace(keyedSize(id, len(ctr)/8))
	if err == nil {
		putKeyed(rec, id, ref, ctr)
	}
	return addr, err
}

// appendData puts rec on the append page (appendSpace).
func (t *Tree) appendData(rec []byte) (DataAddr, error) {
	addr, dst, err := t.appendSpace(len(rec))
	if err == nil {
		copy(dst, rec)
	}
	return addr, err
}

// appendSpace makes room for an n-byte record on the append page, reading
// the page's committed bytes first if the writer does not hold them (after
// Open or Rollback), or on a fresh page (allocPage) when it is full or a
// legacy page, and returns the record's address and the bytes to write it
// into. Empty records and records larger than a page's usable space are
// refused.
func (t *Tree) appendSpace(n int) (DataAddr, []byte, error) {
	if n == 0 {
		return DataAddr{}, nil, errors.New("core: empty record (its slot would read as deleted)")
	}
	if dataHeader+2+n > pagefile.PageSize {
		return DataAddr{}, nil, fmt.Errorf("%w: %d bytes", ErrRecordTooLarge, n)
	}
	if t.appendBuf == nil && t.appendPage != pagefile.InvalidPage {
		buf := make([]byte, pagefile.PageSize)
		if err := t.store.Read(t.appendPage, buf); err != nil {
			return DataAddr{}, nil, err
		}
		t.appendBuf = buf
	}
	var slot uint16
	var rec []byte
	ok := false
	if t.appendBuf != nil {
		slot, rec, ok = appendSlot(t.appendBuf, n)
	}
	if !ok {
		id, err := t.allocPage()
		if err != nil {
			return DataAddr{}, nil, err
		}
		t.appendPage, t.appendBuf = id, newDataPage()
		slot, rec, _ = appendSlot(t.appendBuf, n)
	}
	t.dirty[t.appendPage] = t.appendBuf
	return DataAddr{Page: t.appendPage, Slot: slot}, rec, nil
}

// readRecord returns the record at addr as the writer sees it, and whether
// its page is a legacy one, for a caller that decodes it at once
// (RecordFromPage): from the writer's bytes where its page is the append
// page or one the open batch wrote, since the store has not seen their
// latest records, else from the store. A snapshot never reads the writer's
// bytes: it reads the store, which holds every record of its epoch.
func (t *Tree) readRecord(addr DataAddr) ([]byte, bool, error) {
	page := t.dirty[addr.Page]
	if addr.Page == t.appendPage {
		page = t.appendBuf
	}
	if page == nil {
		page = make([]byte, pagefile.PageSize)
		if err := t.store.Read(addr.Page, page); err != nil {
			return nil, false, err
		}
	}
	return RecordFromPage(page, addr.Slot)
}
