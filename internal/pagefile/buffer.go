package pagefile

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
)

// BufferPool is the writer's dirty-page buffer over a Store. A page the
// writer Puts stays in the buffer, and is served from it, until Flush
// writes it through and drops it; a Get of any other page reads the store
// into a fresh buffer the pool does not keep. Read caching is the job of
// the tree's decoded-node cache above it, which holds every warm node; a
// clean page copy under that cache would be read almost never.
//
// The buffer holds at most capacity pages. Past that bound, Put writes the
// least recently used page (put or read back by the writer) through early,
// so a batch that dirties more pages than the bound still runs in bounded
// memory.
//
// Concurrency contract: any number of goroutines may call Get, Put,
// Invalidate and Flush concurrently without corrupting the pool. Get
// returns the buffer's own copy of a dirty page; callers that mutate a page
// (Put) or free it (Invalidate) while another goroutine could still read it
// must guarantee externally that no reader reaches that page. The tree does
// so with the copy-on-write epoch discipline (VersionedStore): a writer
// only Puts shadow pages no committed root references, so a snapshot reader
// never finds its page in the buffer, and Invalidate runs only on pages
// retired from every epoch a live snapshot pins.
type BufferPool struct {
	store    Store
	capacity int
	hits     atomic.Int64
	misses   atomic.Int64

	mu     sync.Mutex
	frames map[PageID]*list.Element
	lru    *list.List // of *frame; front = most recently put or read
}

type frame struct {
	id   PageID
	data []byte
}

// NewBufferPool wraps store with a dirty-page buffer bounded at capacity
// pages (minimum 1).
func NewBufferPool(store Store, capacity int) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	return &BufferPool{
		store:    store,
		capacity: capacity,
		frames:   make(map[PageID]*list.Element),
		lru:      list.New(),
	}
}

// Get returns the page contents: the buffered copy of a dirty page (a hit),
// or else a fresh read from the store that the pool does not keep (a miss).
func (bp *BufferPool) Get(id PageID) ([]byte, error) {
	bp.mu.Lock()
	if el, ok := bp.frames[id]; ok {
		bp.lru.MoveToFront(el)
		data := el.Value.(*frame).data
		bp.mu.Unlock()
		bp.hits.Add(1)
		return data, nil
	}
	bp.mu.Unlock()
	bp.misses.Add(1)
	data := make([]byte, PageSize)
	if err := bp.store.Read(id, data); err != nil {
		return nil, err
	}
	return data, nil
}

// Put buffers page contents until Flush. A returned error reports the
// failed early write-back of a VICTIM, not a failure to buffer data: the
// put page is in the buffer either way, and the victim stays buffered too.
func (bp *BufferPool) Put(id PageID, data []byte) error {
	if len(data) != PageSize {
		return ErrBadLength
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if el, ok := bp.frames[id]; ok {
		copy(el.Value.(*frame).data, data)
		bp.lru.MoveToFront(el)
		return nil
	}
	// Write back from the LRU tail until there is room. A failed write-back
	// loses nothing: the victim stays buffered (its bytes exist nowhere
	// else) and the new page goes in anyway, one over the bound until a
	// later write-back or Flush succeeds.
	var evictErr error
	for bp.lru.Len() >= bp.capacity {
		if evictErr = bp.writeBack(bp.lru.Back()); evictErr != nil {
			break
		}
	}
	fr := &frame{id: id, data: make([]byte, PageSize)}
	copy(fr.data, data)
	bp.frames[id] = bp.lru.PushFront(fr)
	return evictErr
}

// Invalidate drops a page from the buffer without writing it; used when
// the page is freed.
func (bp *BufferPool) Invalidate(id PageID) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if el, ok := bp.frames[id]; ok {
		bp.lru.Remove(el)
		delete(bp.frames, id)
	}
}

// Flush writes every buffered page through once and drops it. It attempts
// ALL pages even after a failure — a single bad page must not pin every
// other dirty page in memory — and returns the first error; pages whose
// write failed stay buffered for the next attempt.
func (bp *BufferPool) Flush() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	var first error
	for el := bp.lru.Front(); el != nil; {
		next := el.Next()
		if err := bp.writeBack(el); err != nil && first == nil {
			first = err
		}
		el = next
	}
	return first
}

// writeBack writes a buffered page through and drops it; on failure the
// page stays buffered. Callers hold bp.mu, so a concurrent Get never misses
// a page that is between buffer and store.
func (bp *BufferPool) writeBack(el *list.Element) error {
	fr := el.Value.(*frame)
	if err := bp.store.Write(fr.id, fr.data); err != nil {
		return fmt.Errorf("pagefile: writing back page %d: %w", fr.id, err)
	}
	bp.lru.Remove(el)
	delete(bp.frames, fr.id)
	return nil
}

// Dirty reports the number of pages the buffer holds, all of them dirty.
func (bp *BufferPool) Dirty() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return len(bp.frames)
}

// HitRate reports how many Gets the buffer served (hits) and how many read
// the store (misses).
func (bp *BufferPool) HitRate() (hits, misses int64) {
	return bp.hits.Load(), bp.misses.Load()
}
