package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/pagefile"
)

// The ID directory (Tree.dir) maps every live ID of the working tree to its
// record's address: Delete's key and the object count. Open rebuilds it
// from the leaves, and Rollback reverts it with the pages.
//
// It is three slabs sorted by ID — the ID, its record's page and slot, 14
// bytes an object and no pointer — where a lookup is a binary search, plus
// a small map of the IDs inserted since the slabs were last rebuilt. A
// delete marks its ID's page pagefile.InvalidPage rather than moving the
// slabs, and an ID deleted and inserted again takes its row back. Commit
// rebuilds the slabs (compact) once the map and the deleted rows together
// exceed a sixteenth of them, so a committed directory holds at most 16/15
// rows a live ID and a lookup stays O(log n). BulkLoad lays the slabs from
// its ID-sorted copy of the objects, Open from the leaf walk's pairs,
// sorted.

var (
	// ErrDuplicateID is returned by Insert for an ID the tree holds, and by
	// BulkLoad for an ID its input names twice. Nothing is mutated.
	ErrDuplicateID = errors.New("core: object ID already in the index")
	// ErrNotFound is returned by Delete for an ID the tree does not hold.
	// Nothing is mutated.
	ErrNotFound = errors.New("core: object not found")
)

// directory is the ID directory: ids ascending, pages and slots the
// addresses of their records, a deleted ID's page pagefile.InvalidPage;
// dead counts those rows. recent holds the live IDs in no row.
type directory struct {
	ids    []int64
	pages  []pagefile.PageID
	slots  []uint16
	dead   int
	recent map[int64]DataAddr
}

// newDirectory returns a directory of n rows, their addresses zero, for
// the caller to fill.
func newDirectory(n int) directory {
	return directory{ids: make([]int64, n), pages: make([]pagefile.PageID, n), slots: make([]uint16, n)}
}

// len is the number of live IDs.
func (d *directory) len() int { return len(d.ids) - d.dead + len(d.recent) }

// row is id's row in the slabs, live or deleted, or -1.
func (d *directory) row(id int64) int {
	if i, ok := slices.BinarySearch(d.ids, id); ok {
		return i
	}
	return -1
}

// get returns a live ID's record address.
func (d *directory) get(id int64) (DataAddr, bool) {
	if i := d.row(id); i >= 0 {
		return DataAddr{Page: d.pages[i], Slot: d.slots[i]}, d.pages[i] != pagefile.InvalidPage
	}
	addr, ok := d.recent[id]
	return addr, ok
}

// set makes id live at addr: in its row if it has one, else in recent.
func (d *directory) set(id int64, addr DataAddr) {
	if i := d.row(id); i >= 0 {
		if d.pages[i] == pagefile.InvalidPage {
			d.dead--
		}
		d.pages[i], d.slots[i] = addr.Page, addr.Slot
		return
	}
	if d.recent == nil {
		d.recent = make(map[int64]DataAddr)
	}
	d.recent[id] = addr
}

// remove makes id not live.
func (d *directory) remove(id int64) {
	if i := d.row(id); i >= 0 {
		if d.pages[i] != pagefile.InvalidPage {
			d.pages[i] = pagefile.InvalidPage
			d.dead++
		}
		return
	}
	delete(d.recent, id)
}

// compact rebuilds the slabs of the live IDs alone, recent's merged in,
// once recent and the deleted rows together exceed a sixteenth of the
// rows; the new slabs are allocated at their length.
func (d *directory) compact() {
	if len(d.recent)+d.dead <= len(d.ids)/16 {
		return
	}
	rows := make([]dirRow, 0, d.len())
	for i, id := range d.ids {
		if d.pages[i] != pagefile.InvalidPage {
			rows = append(rows, dirRow{id: id, addr: DataAddr{Page: d.pages[i], Slot: d.slots[i]}})
		}
	}
	for id, addr := range d.recent {
		rows = append(rows, dirRow{id: id, addr: addr})
	}
	*d, _ = directoryOf(rows)
}

// dirRow is one leaf entry's ID, record address and leaf page, as Open's
// walk finds it.
type dirRow struct {
	id   int64
	addr DataAddr
	leaf pagefile.PageID
}

// directoryOf lays the directory of rows, in any order — Open's in walk
// order; a row naming the ID of an earlier one is returned as dup.
func directoryOf(rows []dirRow) (d directory, dup *dirRow) {
	slices.SortStableFunc(rows, func(a, b dirRow) int { return cmp.Compare(a.id, b.id) })
	d = newDirectory(len(rows))
	for i, r := range rows {
		if i > 0 && rows[i-1].id == r.id {
			return directory{}, &rows[i]
		}
		d.ids[i], d.pages[i], d.slots[i] = r.id, r.addr.Page, r.addr.Slot
	}
	return d, nil
}

// check holds the directory to its own layout: the slabs of one length,
// their IDs strictly ascending, dead counting the deleted rows and no ID
// of recent in a row.
func (d *directory) check() error {
	if len(d.pages) != len(d.ids) || len(d.slots) != len(d.ids) {
		return fmt.Errorf("core: directory slabs of %d IDs, %d pages and %d slots", len(d.ids), len(d.pages), len(d.slots))
	}
	dead := 0
	for i, id := range d.ids {
		if i > 0 && d.ids[i-1] >= id {
			return fmt.Errorf("core: directory row %d holds ID %d after %d", i, id, d.ids[i-1])
		}
		if d.pages[i] == pagefile.InvalidPage {
			dead++
		}
	}
	if dead != d.dead {
		return fmt.Errorf("core: directory counts %d deleted rows, its slabs hold %d", d.dead, dead)
	}
	for id := range d.recent {
		if d.row(id) >= 0 {
			return fmt.Errorf("core: directory holds ID %d in a row and among the recent", id)
		}
	}
	return nil
}

// dirUndo is one entry of the journal since the last Commit (Tree.undo): an
// ID and its address before a mutation — live says whether it had one — or,
// with load set, a BulkLoad, which found the directory empty.
type dirUndo struct {
	id         int64
	prev       DataAddr
	live, load bool
}

// journal records id's directory entry before a mutation changes it.
func (t *Tree) journal(id int64) {
	prev, live := t.dir.get(id)
	t.undo = append(t.undo, dirUndo{id: id, prev: prev, live: live})
}

// revertDir replays the journal backwards to the last Commit. The slabs
// are not rebuilt between commits, so each entry's row, where it has one,
// is still there.
func (t *Tree) revertDir() {
	for i := len(t.undo) - 1; i >= 0; i-- {
		switch u := t.undo[i]; {
		case u.load:
			t.dir = directory{}
		case u.live:
			t.dir.set(u.id, u.prev)
		default:
			t.dir.remove(u.id)
		}
	}
	t.undo = nil
}

// Holds reports whether id is live in the working tree.
func (t *Tree) Holds(id int64) bool {
	_, ok := t.dir.get(id)
	return ok
}

// RecordAddr returns the address of a live object's data record.
func (t *Tree) RecordAddr(id int64) (DataAddr, bool) { return t.dir.get(id) }

// Uncommitted returns the number of inserts, deletes and bulk loads since
// the last Commit or Rollback.
func (t *Tree) Uncommitted() int { return len(t.undo) }
