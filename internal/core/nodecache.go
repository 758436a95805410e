package core

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/pagefile"
)

// nodeCache is a sharded LRU cache of decoded nodes — the tree's one read
// cache. It holds the packedNode values decodeNode builds from committed
// pages, so a hot traversal skips both the page read and the decode; the
// BufferPool under it keeps only the writer's dirty pages, and a miss here
// reads the store. A packed node is a few flat slabs
// (see packedNode), so a cached node costs about one page of heap — the
// 1024-node default is about 4 MiB — and a cached leaf gives the GC
// nothing to scan.
//
// Coherence rests on the copy-on-write epoch discipline (VersionedStore):
//
//   - Only committed pages are inserted (writeNode relocates any committed
//     page before rewriting it, so a committed page's bytes — and therefore
//     its decoded node — are immutable for as long as the page is live).
//     Shadow (fresh) pages bypass the cache: maybeCacheNode refuses them,
//     and since a PageID is only recycled after its physical free runs the
//     cache invalidator first, a fresh page can never alias a live entry.
//   - Entries are dropped when the VersionedStore physically frees the
//     page (reclaim, rollback, fresh-free) — the only moment a PageID's
//     bytes can change. Until then the entry is valid for every reader,
//     whatever epoch it pinned: snapshots at different epochs that can
//     reach the same live page see the same bytes by construction.
//
// Eviction keeps the inner levels: an overflowing shard evicts its least
// recently used leaf, and an inner node only when it holds no leaf. A
// descent passes through every inner level on its way to a few leaves, so
// a cold tree's inner nodes are read far more often than any one leaf;
// a cache smaller than the tree then spends its misses on leaves.
//
// The PageID is the coherence key.
//
// Cached nodes are shared across concurrent lock-free readers and MUST be
// treated as immutable. The query paths only read them; mutation paths
// (insert/delete descents) never touch the cache — they decode private
// copies and expand them into the edit form (node, entry) they are free to
// edit in place.
type nodeCache struct {
	shards []ncShard
	hits   atomic.Int64
	misses atomic.Int64
}

type ncShard struct {
	mu       sync.Mutex
	capacity int
	entries  map[pagefile.PageID]*list.Element
	// lru[0] holds the shard's leaves, lru[1] its inner nodes; front = most
	// recent.
	lru [2]*list.List
}

// lruOf is the index into ncShard.lru of the list n belongs on.
func lruOf(n *packedNode) int {
	if n.leaf() {
		return 0
	}
	return 1
}

type ncEntry struct {
	id pagefile.PageID
	n  *packedNode
}

const (
	// ncMaxShards bounds the shard count (power of two for cheap masking).
	ncMaxShards = 16
	// ncMinShardEntries keeps shards from degenerating into single-entry
	// LRUs on small caches.
	ncMinShardEntries = 4
	// defaultNodeCacheEntries is the Options.NodeCacheEntries default.
	defaultNodeCacheEntries = 1024
)

// newNodeCache builds a cache bounded at capacity decoded nodes (minimum 1),
// split across PageID-hashed shards.
func newNodeCache(capacity int) *nodeCache {
	if capacity < 1 {
		capacity = 1
	}
	n := 1
	for n*2 <= ncMaxShards && capacity/(n*2) >= ncMinShardEntries {
		n *= 2
	}
	nc := &nodeCache{shards: make([]ncShard, n)}
	for i := range nc.shards {
		c := capacity / n
		if i < capacity%n {
			c++
		}
		if c < 1 {
			c = 1
		}
		nc.shards[i] = ncShard{
			capacity: c,
			entries:  make(map[pagefile.PageID]*list.Element, c),
			lru:      [2]*list.List{list.New(), list.New()},
		}
	}
	return nc
}

func (nc *nodeCache) shard(id pagefile.PageID) *ncShard {
	return &nc.shards[int(id)&(len(nc.shards)-1)]
}

// get returns the cached node for id, marking it most recently used.
func (nc *nodeCache) get(id pagefile.PageID) (*packedNode, bool) {
	s := nc.shard(id)
	s.mu.Lock()
	el, ok := s.entries[id]
	if !ok {
		s.mu.Unlock()
		nc.misses.Add(1)
		return nil, false
	}
	n := el.Value.(*ncEntry).n
	s.lru[lruOf(n)].MoveToFront(el)
	s.mu.Unlock()
	nc.hits.Add(1)
	return n, true
}

// put inserts (or refreshes) the node decoded from a committed page,
// evicting on overflow the shard's least recently used leaf — or, with no
// leaf in the shard, its least recently used inner node. Callers must only
// pass committed pages (maybeCacheNode enforces this).
func (nc *nodeCache) put(id pagefile.PageID, n *packedNode) {
	s := nc.shard(id)
	s.mu.Lock()
	if el, ok := s.entries[id]; ok {
		// Same PageID, same bytes (committed pages are immutable while
		// live): keep whichever decode arrived first, just refresh LRU.
		s.lru[lruOf(el.Value.(*ncEntry).n)].MoveToFront(el)
		s.mu.Unlock()
		return
	}
	s.entries[id] = s.lru[lruOf(n)].PushFront(&ncEntry{id: id, n: n})
	if len(s.entries) > s.capacity {
		from := s.lru[0]
		if from.Len() == 0 {
			from = s.lru[1]
		}
		victim := from.Back()
		from.Remove(victim)
		delete(s.entries, victim.Value.(*ncEntry).id)
	}
	s.mu.Unlock()
}

// invalidate drops the entry for id — called by the VersionedStore
// immediately before a page is physically freed, so the PageID can be
// recycled without a stale decoded node surviving it.
func (nc *nodeCache) invalidate(id pagefile.PageID) {
	s := nc.shard(id)
	s.mu.Lock()
	if el, ok := s.entries[id]; ok {
		s.lru[lruOf(el.Value.(*ncEntry).n)].Remove(el)
		delete(s.entries, id)
	}
	s.mu.Unlock()
}

// stats returns the cumulative hit/miss counters.
func (nc *nodeCache) stats() (hits, misses int64) {
	return nc.hits.Load(), nc.misses.Load()
}

// len reports the number of cached nodes (tests: the entry-count bound).
func (nc *nodeCache) len() int {
	n := 0
	for i := range nc.shards {
		s := &nc.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}
