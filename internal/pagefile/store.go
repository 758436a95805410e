// Package pagefile provides the disk substrate of the U-tree reproduction:
// fixed-size 4096-byte pages (the paper's page size), an in-memory and a
// file-backed store with its header and page checksums, a fault injector
// and I/O statistics. The bytes of a page are its owner's: the tree's node,
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

// Reset zeroes all counters.
func (s *Stats) Reset() {
	s.Reads.Store(0)
	s.Writes.Store(0)
	s.Allocs.Store(0)
	s.Frees.Store(0)
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

// MemStore is an in-memory Store; the default substrate for experiments
// (the paper's I/O metric is node/page *accesses*, which we count, not
// physical disk time).
type MemStore struct {
	mu    sync.Mutex
	pages [][]byte
	freed []PageID
	live  map[PageID]bool
	stats Stats
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{live: make(map[PageID]bool)}
}

func (m *MemStore) Alloc() (PageID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.Allocs.Add(1)
	if n := len(m.freed); n > 0 {
		id := m.freed[n-1]
		m.freed = m.freed[:n-1]
		for i := range m.pages[id] {
			m.pages[id][i] = 0
		}
		m.live[id] = true
		return id, nil
	}
	id := PageID(len(m.pages))
	m.pages = append(m.pages, make([]byte, PageSize))
	m.live[id] = true
	return id, nil
}

func (m *MemStore) check(id PageID) error {
	if int(id) >= len(m.pages) {
		return fmt.Errorf("%w: %d", ErrPageOutOfRange, id)
	}
	if !m.live[id] {
		return fmt.Errorf("%w: %d", ErrPageFreed, id)
	}
	return nil
}

func (m *MemStore) Read(id PageID, buf []byte) error {
	if len(buf) != PageSize {
		return ErrBadLength
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.check(id); err != nil {
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
	if err := m.check(id); err != nil {
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
	if err := m.check(id); err != nil {
		return err
	}
	m.stats.Writes.Add(1)
	copy(m.pages[id], buf)
	return nil
}

func (m *MemStore) Free(id PageID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.check(id); err != nil {
		return err
	}
	m.stats.Frees.Add(1)
	delete(m.live, id)
	m.freed = append(m.freed, id)
	return nil
}

func (m *MemStore) NumPages() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.live)
}

func (m *MemStore) Stats() *Stats { return &m.stats }

// VerifyPage implements PageVerifier: memory has no checksum trailer, so a
// live in-range page verifies trivially.
func (m *MemStore) VerifyPage(id PageID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.check(id)
}

// CorruptPayload implements Corrupter: flips one bit of the page in place.
// With no trailer the flip is undetectable by Read — detection tests must
// use FileStore.
func (m *MemStore) CorruptPayload(id PageID, bit int) error {
	if bit < 0 || bit >= PageSize*8 {
		return fmt.Errorf("pagefile: corrupt bit %d out of range", bit)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.check(id); err != nil {
		return err
	}
	m.pages[id][bit/8] ^= 1 << (bit % 8)
	return nil
}

// WriteTorn implements TornWriter: persists only the first n bytes of buf,
// leaving the page tail at its previous contents.
func (m *MemStore) WriteTorn(id PageID, buf []byte, n int) error {
	if len(buf) != PageSize {
		return ErrBadLength
	}
	if n < 0 || n > PageSize {
		return fmt.Errorf("pagefile: torn length %d out of range", n)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.check(id); err != nil {
		return err
	}
	m.stats.Writes.Add(1)
	copy(m.pages[id][:n], buf[:n])
	return nil
}

// SizeBytes reports the total allocated page bytes — the "size comparison"
// number of Table 1.
func (m *MemStore) SizeBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return int64(len(m.live)) * PageSize
}
