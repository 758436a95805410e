// Package pagefile provides the disk substrate of the U-tree reproduction:
// fixed-size 4096-byte pages (the paper's page size), an in-memory and a
// file-backed store with its header and page checksums, and I/O
// statistics. The bytes of a page are its owner's: the tree's node,
// data and metadata page formats live in package core.
package pagefile

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// PageSize is the fixed page size in bytes (Section 6: "The page size is
// fixed to 4096 bytes").
const PageSize = 4096

// PageID identifies a page within a store.
type PageID uint32

// InvalidPage is the nil page identifier.
const InvalidPage = PageID(0xFFFFFFFF)

// Errors returned by stores.
var (
	ErrPageOutOfRange = errors.New("pagefile: page id out of range")
	ErrPageFreed      = errors.New("pagefile: page is on the free list")
	ErrBadLength      = errors.New("pagefile: buffer length must equal PageSize")
)

// Stats counts page-level operations; counters are atomic so stores can be
// shared across goroutines.
type Stats struct {
	Reads  atomic.Int64
	Writes atomic.Int64
	Allocs atomic.Int64
	Frees  atomic.Int64
}

// Snapshot returns a plain-value copy of the counters.
func (s *Stats) Snapshot() (reads, writes, allocs, frees int64) {
	return s.Reads.Load(), s.Writes.Load(), s.Allocs.Load(), s.Frees.Load()
}

// Store is the page-granularity storage abstraction.
type Store interface {
	// Alloc returns a zeroed page.
	Alloc() (PageID, error)
	// Read copies the page into buf (len PageSize).
	Read(id PageID, buf []byte) error
	// Write copies buf (len PageSize) into the page.
	Write(id PageID, buf []byte) error
	// Free returns the page to the allocator.
	Free(id PageID) error
	// NumPages reports the number of allocated (live) pages.
	NumPages() int
	// Stats exposes the operation counters.
	Stats() *Stats
}

// Page states in the allocator. A MemStore holds the bytes of every live
// page and leaves them reserved; a FileStore marks a page written once it
// has bytes in the file.
const (
	pageFree     byte = iota
	pageReserved      // allocated and not yet written: reads as zeros
	pageWritten
)

// allocator is the one page allocator both stores use, and it lives in
// memory only: ids from first up, freed ids reused last in, first out, and
// one state byte per page. A file records none of it; a reopened file
// starts with every page written, and Retain frees what the tree does not
// reach.
type allocator struct {
	first PageID
	state []byte // indexed by id - first
	free  []PageID
	live  int
}

func (a *allocator) alloc() PageID {
	a.live++
	if n := len(a.free); n > 0 {
		id := a.free[n-1]
		a.free = a.free[:n-1]
		a.state[id-a.first] = pageReserved
		return id
	}
	a.state = append(a.state, pageReserved)
	return a.first + PageID(len(a.state)-1)
}

// check returns the state of live page id: an error for a page out of
// range or free.
func (a *allocator) check(id PageID) (byte, error) {
	if id < a.first || int(id-a.first) >= len(a.state) {
		return 0, fmt.Errorf("%w: %d", ErrPageOutOfRange, id)
	}
	if st := a.state[id-a.first]; st != pageFree {
		return st, nil
	}
	return 0, fmt.Errorf("%w: %d", ErrPageFreed, id)
}

func (a *allocator) release(id PageID) error {
	if _, err := a.check(id); err != nil {
		return err
	}
	a.state[id-a.first] = pageFree
	a.free = append(a.free, id)
	a.live--
	return nil
}

// retain frees every live page not in reachable, in ascending order.
func (a *allocator) retain(reachable map[PageID]bool) {
	for i, st := range a.state {
		if id := a.first + PageID(i); st != pageFree && !reachable[id] {
			a.state[i] = pageFree
			a.free = append(a.free, id)
			a.live--
		}
	}
}

// MemStore is an in-memory Store; the default substrate for experiments
// (the paper's I/O metric is node/page *accesses*, which we count, not
// physical disk time).
type MemStore struct {
	mu    sync.Mutex
	pages [][]byte
	ids   allocator
	stats Stats
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

func (m *MemStore) Alloc() (PageID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.Allocs.Add(1)
	id := m.ids.alloc()
	if int(id) < len(m.pages) {
		clear(m.pages[id])
	} else {
		m.pages = append(m.pages, make([]byte, PageSize))
	}
	return id, nil
}

func (m *MemStore) Read(id PageID, buf []byte) error {
	if len(buf) != PageSize {
		return ErrBadLength
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.ids.check(id); err != nil {
		return err
	}
	m.stats.Reads.Add(1)
	copy(buf, m.pages[id])
	return nil
}

// View returns the page itself, not a copy, checked and counted as Read
// does. The caller must not write it, and may read it only for as long as
// the page is neither written nor freed: core's readers view committed
// node pages this way, which the tree never writes in place and frees only
// once no pinned epoch can reach them.
func (m *MemStore) View(id PageID) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.ids.check(id); err != nil {
		return nil, err
	}
	m.stats.Reads.Add(1)
	return m.pages[id], nil
}

func (m *MemStore) Write(id PageID, buf []byte) error {
	if len(buf) != PageSize {
		return ErrBadLength
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.ids.check(id); err != nil {
		return err
	}
	m.stats.Writes.Add(1)
	copy(m.pages[id], buf)
	return nil
}

func (m *MemStore) Free(id PageID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.ids.release(id); err != nil {
		return err
	}
	m.stats.Frees.Add(1)
	return nil
}

func (m *MemStore) NumPages() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ids.live
}

func (m *MemStore) Stats() *Stats { return &m.stats }

// VerifyPage implements PageVerifier: memory has no checksum trailer, so a
// live in-range page verifies trivially.
func (m *MemStore) VerifyPage(id PageID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, err := m.ids.check(id)
	return err
}
