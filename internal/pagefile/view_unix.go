//go:build unix

package pagefile

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"syscall"
)

// regionPages is how many page slots one mapped region covers: 4,096
// (16 MiB of file), doubled until the region is a whole number of OS
// pages, so every region starts at an offset the OS can map and no slot
// straddles two. A slot is 513 × 8 bytes, so 4,096 slots are 2¹⁵ × 513
// bytes: one region wherever the OS page is at most 32 KiB. Every slot, and
// so every payload, starts 8-byte aligned.
var regionPages = func() int {
	n := 4096
	for n*stride%os.Getpagesize() != 0 {
		n *= 2
	}
	return n
}()

// regions is a FileStore's read-only mapping of its file: maps[k] covers
// the slots of pages k·regionPages up to the next region, nil until a View
// first needs it. A region maps its whole span whatever the file's length,
// so the pages the file grows into show through it, and it is never
// remapped: a view stays where it was for as long as the store lives.
type regions struct {
	maps [][]byte
}

// unmap releases every region: the store's cleanup, once it is
// unreachable and so is every view a reader could still hold.
func (r *regions) unmap() {
	for _, m := range r.maps {
		if m != nil {
			_ = syscall.Munmap(m) // a cleanup has no caller to report to
		}
	}
}

// View returns page id's payload in place, inside the store's read-only
// mapping of the file, checked as Read checks it — the CRC and the id echo
// — and counted as one read. Only a written page has bytes to view. The
// caller must not write the view, and may read it only for as long as the
// page is neither written nor freed and the store stays reachable: core's
// readers view committed node pages, which the tree never writes in place
// and frees only once no pinned epoch can reach them, through the tree
// that holds the store. A fault while the page is checked (the file cut
// short under the store, or a read the medium failed) is an ErrFault; after
// Close, View fails as Read does, though views taken before stay readable.
func (fs *FileStore) View(id PageID) ([]byte, error) {
	fs.mu.Lock()
	slot, err := fs.slotLocked(id)
	fs.mu.Unlock()
	if err == nil {
		err = checkMapped(id, slot)
	}
	runtime.KeepAlive(fs) // the mapping lives while fs does
	if err != nil {
		return nil, err
	}
	return slot[:PageSize:PageSize], nil
}

// slotLocked counts a read of written page id and returns its slot in the
// mapping, mapping the slot's region read-only and shared if no view has
// needed it yet. Caller holds fs.mu.
func (fs *FileStore) slotLocked(id PageID) ([]byte, error) {
	if fs.closed {
		return nil, fmt.Errorf("pagefile: viewing page %d: %w", id, os.ErrClosed)
	}
	st, err := fs.ids.check(id)
	if err != nil {
		return nil, err
	}
	if st != pageWritten {
		return nil, fmt.Errorf("pagefile: page %d is reserved, not written: nothing to view", id)
	}
	fs.stats.Reads.Add(1)
	if fs.regions == nil {
		fs.regions = &regions{}
		runtime.AddCleanup(fs, (*regions).unmap, fs.regions)
	}
	r := fs.regions
	k, i := int(id)/regionPages, int(id)%regionPages
	if k >= len(r.maps) {
		r.maps = append(r.maps, make([][]byte, k+1-len(r.maps))...)
	}
	if r.maps[k] == nil {
		m, err := syscall.Mmap(int(fs.f.Fd()), int64(k)*int64(regionPages)*stride, regionPages*stride,
			syscall.PROT_READ, syscall.MAP_SHARED)
		if err != nil {
			return nil, fmt.Errorf("pagefile: mapping the page file: %w", err)
		}
		r.maps[k] = m
	}
	return r.maps[k][i*stride : (i+1)*stride : (i+1)*stride], nil
}

// checkMapped is checkSlot on a slot of the mapping. Reading a slot past
// the file's end, or one the medium fails to read, faults; the fault
// becomes an ErrFault naming the page rather than a crash.
func checkMapped(id PageID, slot []byte) (err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			if _, fault := r.(interface{ Addr() uintptr }); !fault {
				panic(r)
			}
			err = fmt.Errorf("%w: page %d: %v", ErrFault, id, r)
		}
	}()
	return checkSlot(id, slot)
}
