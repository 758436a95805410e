package pagefile

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
)

// BufferPool is a write-back LRU page cache over a Store. It exists as a
// performance layer: the experiments count *logical* node accesses the way
// the paper does, while the pool keeps repeated physical reads cheap.
//
// The pool is sharded: each page maps to one of up to 16 mutex-guarded LRU
// shards by PageID, so concurrent readers on different pages rarely contend,
// and the hit/miss counters are atomic. Concurrency contract: any number of
// goroutines may call Get/Put/Invalidate/Flush concurrently without
// corrupting the pool. Get returns the pool's internal frame, shared with
// other readers of the same page; callers that mutate a page (Put) or free
// it (Invalidate) while another goroutine could still read its frame must
// guarantee externally that no reader reaches that page. The tree does so
// with the copy-on-write epoch discipline (VersionedStore): a writer only
// Puts shadow pages no committed root references, and Invalidate runs only
// on pages retired from every epoch a live snapshot pins.
type BufferPool struct {
	store  Store
	shards []bufShard
	hits   atomic.Int64
	misses atomic.Int64

	// evictMu/evictErr stash the first dirty-victim write-back failure hit
	// on a read path (Get cannot return it without failing a read that
	// succeeded). Surfaced at the next Flush, mirroring the reclaimer's
	// deferred-error pattern; the failed victim stays dirty in the pool, so
	// no data is lost while the error travels.
	evictMu  sync.Mutex
	evictErr error
}

// bufShard is one mutex-guarded LRU slice of the pool.
type bufShard struct {
	mu       sync.Mutex
	capacity int
	frames   map[PageID]*list.Element
	lru      *list.List // front = most recent
	// loading coordinates concurrent misses on the same page: the first
	// Get reads the store, later Gets wait on the entry instead of
	// duplicating the (possibly slow) read.
	loading map[PageID]*pageLoad
}

// pageLoad is an in-flight store read; done is closed once data/err are set.
type pageLoad struct {
	done chan struct{}
	data []byte
	err  error
}

type frame struct {
	id    PageID
	data  []byte
	dirty bool
}

const (
	// maxShards bounds the shard count (power of two for cheap masking).
	maxShards = 16
	// minShardPages keeps shards from degenerating to single-frame LRUs on
	// small pools: a shard is only added while every shard keeps ≥ 4 pages.
	minShardPages = 4
)

// NewBufferPool wraps store with an LRU cache of the given total page
// capacity (minimum 1), split across shards. Small pools get a single shard,
// preserving exact global-LRU eviction order; larger pools trade that for
// parallelism.
func NewBufferPool(store Store, capacity int) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	n := 1
	for n*2 <= maxShards && capacity/(n*2) >= minShardPages {
		n *= 2
	}
	bp := &BufferPool{store: store, shards: make([]bufShard, n)}
	for i := range bp.shards {
		c := capacity / n
		if i < capacity%n {
			c++
		}
		bp.shards[i] = bufShard{
			capacity: c,
			frames:   make(map[PageID]*list.Element),
			lru:      list.New(),
			loading:  make(map[PageID]*pageLoad),
		}
	}
	return bp
}

func (bp *BufferPool) shard(id PageID) *bufShard {
	return &bp.shards[int(id)&(len(bp.shards)-1)]
}

// Get returns the page contents, reading through on a miss. Concurrent
// misses on the same page coalesce into one store read: the first caller
// fills the frame, the rest wait on it. Every Get counts exactly one hit
// (cached) or one miss (waited for storage).
func (bp *BufferPool) Get(id PageID) ([]byte, error) {
	sh := bp.shard(id)
	sh.mu.Lock()
	if el, ok := sh.frames[id]; ok {
		sh.lru.MoveToFront(el)
		data := el.Value.(*frame).data
		sh.mu.Unlock()
		bp.hits.Add(1)
		return data, nil
	}
	if pl, ok := sh.loading[id]; ok {
		sh.mu.Unlock()
		bp.misses.Add(1)
		<-pl.done
		return pl.data, pl.err
	}
	pl := &pageLoad{done: make(chan struct{})}
	sh.loading[id] = pl
	sh.mu.Unlock()

	// Read outside the shard lock so misses on different pages of the same
	// shard overlap their store I/O.
	bp.misses.Add(1)
	fr := &frame{id: id, data: make([]byte, PageSize)}
	err := bp.store.Read(id, fr.data)

	var evictErr error
	sh.mu.Lock()
	delete(sh.loading, id)
	if err == nil {
		if el, ok := sh.frames[id]; ok {
			// A Put cached the page while we read the store; its frame may
			// carry buffered contents, so serve that copy, not ours.
			sh.lru.MoveToFront(el)
			fr = el.Value.(*frame)
		} else {
			evictErr = sh.insert(bp.store, fr)
		}
	}
	sh.mu.Unlock()

	if err != nil {
		pl.err = err
		close(pl.done)
		return nil, err
	}
	if evictErr != nil {
		// The read succeeded; only a dirty victim's write-back failed. The
		// victim stays dirty in the pool — serve the data and surface the
		// write failure at the next Flush rather than failing this read.
		bp.stashEvictErr(evictErr)
	}
	pl.data = fr.data
	close(pl.done)
	return fr.data, nil
}

// stashEvictErr records the first deferred eviction write-back failure.
func (bp *BufferPool) stashEvictErr(err error) {
	bp.evictMu.Lock()
	if bp.evictErr == nil {
		bp.evictErr = err
	}
	bp.evictMu.Unlock()
}

// takeEvictErr returns and clears the stashed eviction failure.
func (bp *BufferPool) takeEvictErr() error {
	bp.evictMu.Lock()
	err := bp.evictErr
	bp.evictErr = nil
	bp.evictMu.Unlock()
	return err
}

// Put stores page contents (marking the frame dirty; flushed on eviction or
// Flush). A returned error reports a dirty VICTIM's failed write-back, not
// a failure to cache data: the put page is in the pool (dirty) either way,
// and the victim stays dirty too.
func (bp *BufferPool) Put(id PageID, data []byte) error {
	if len(data) != PageSize {
		return ErrBadLength
	}
	sh := bp.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.frames[id]; ok {
		fr := el.Value.(*frame)
		copy(fr.data, data)
		fr.dirty = true
		sh.lru.MoveToFront(el)
		return nil
	}
	fr := &frame{id: id, data: make([]byte, PageSize), dirty: true}
	copy(fr.data, data)
	return sh.insert(bp.store, fr)
}

// insert places fr in the shard, evicting from the shard's LRU tail as
// needed. Callers hold sh.mu. Dirty-victim write-back happens under the
// shard lock — moving it outside would need in-flight tracking to stop a
// concurrent Get from re-reading the not-yet-written page; read-heavy
// phases avoid the stall by flushing beforehand (Tree.Flush), after which
// query-path evictions are all clean.
//
// A failed dirty-victim write-back must not lose data in either
// direction: the victim stays in the pool, still dirty (its bytes exist
// nowhere else), AND fr is inserted anyway — the shard runs one frame
// over capacity until a later eviction or Flush succeeds. The error is
// returned for the caller to surface or stash.
func (sh *bufShard) insert(store Store, fr *frame) error {
	var evictErr error
	for sh.lru.Len() >= sh.capacity {
		back := sh.lru.Back()
		victim := back.Value.(*frame)
		if victim.dirty {
			if err := store.Write(victim.id, victim.data); err != nil {
				evictErr = fmt.Errorf("pagefile: evicting page %d: %w", victim.id, err)
				break
			}
		}
		sh.lru.Remove(back)
		delete(sh.frames, victim.id)
	}
	sh.frames[fr.id] = sh.lru.PushFront(fr)
	return evictErr
}

// Invalidate drops a page from the cache without writing it back; used when
// the underlying page is freed.
func (bp *BufferPool) Invalidate(id PageID) {
	sh := bp.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.frames[id]; ok {
		sh.lru.Remove(el)
		delete(sh.frames, id)
	}
}

// Flush writes back every dirty frame. It attempts ALL frames even after
// a failure — a single bad page must not pin every other dirty page in
// memory — and returns the first error; frames whose write failed stay
// dirty for the next attempt. A write-back failure stashed by an earlier
// eviction surfaces here too.
func (bp *BufferPool) Flush() error {
	first := bp.takeEvictErr()
	for i := range bp.shards {
		sh := &bp.shards[i]
		sh.mu.Lock()
		for el := sh.lru.Front(); el != nil; el = el.Next() {
			fr := el.Value.(*frame)
			if fr.dirty {
				if err := bp.store.Write(fr.id, fr.data); err != nil {
					if first == nil {
						first = fmt.Errorf("pagefile: flushing page %d: %w", fr.id, err)
					}
					continue
				}
				fr.dirty = false
			}
		}
		sh.mu.Unlock()
	}
	return first
}

// Dirty reports the number of dirty frames across all shards — test
// instrumentation for the error-path contract that failed write-backs
// keep their frames dirty.
func (bp *BufferPool) Dirty() int {
	n := 0
	for i := range bp.shards {
		sh := &bp.shards[i]
		sh.mu.Lock()
		for el := sh.lru.Front(); el != nil; el = el.Next() {
			if el.Value.(*frame).dirty {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// HitRate reports cache effectiveness (hits, misses).
func (bp *BufferPool) HitRate() (hits, misses int64) {
	return bp.hits.Load(), bp.misses.Load()
}
