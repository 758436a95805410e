package core

import (
	"container/list"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/pagefile"
)

// nodeCache is a sharded cache of decoded nodes — the tree's one read
// cache. It holds the packedNode values decodeNode builds from committed
// pages, so a hot traversal skips both the page read and the check; a
// miss here reads the store (the writer's dirty pages are its own, in
// Tree.dirty, and never reach a reader). A packed node views its page's
// bytes (see packedNode): the store's own page, in memory or in the page
// file's read-only mapping, so a cached node costs its 128-byte struct
// (and, for an intermediate node, its rects), the page being the store's
// or the OS page cache's anyway — about 0.4 KB of heap a node, map and
// list included. Only behind a store wrapper (Config.WrapStore), or on a
// file where the OS does not map it, does a node own the 4,096-byte
// buffer its page was read into.
//
// Coherence rests on the tree's copy-on-write epochs (epoch.go):
//
//   - Only committed pages are inserted (writeNode relocates any committed
//     page before rewriting it, so a committed page's bytes — and therefore
//     its decoded node — are immutable for as long as the page is live).
//     Fresh pages, the metadata page and the append page bypass the cache:
//     maybeCacheNode refuses them (shareable), and since a PageID is only
//     recycled after dropPage has dropped its entry, a fresh page can never
//     alias a live entry.
//   - Entries are dropped when the tree physically frees the page
//     (dropPage: reclaim, rollback, fresh-free) — the only moment a
//     PageID's bytes can change. Until then the entry is valid for every
//     reader, whatever epoch it pinned: snapshots at different epochs that
//     can reach the same live page see the same bytes by construction.
//   - The same argument makes a view of the store's page safe, cached or
//     held by a query: the tree writes a committed node page never
//     (writeNode relocates it) and reuses it — MemStore zeroes it in Alloc,
//     a FileStore's mapping shows the next write — only after dropPage,
//     which drops the entry first and runs only once no pinned epoch can
//     reach the page; and a query holds its pin for as long as it reads
//     the node.
//
// Eviction keeps the inner levels: an overflowing shard evicts its least
// recently used leaf, and an inner node only when it holds no leaf. A
// descent passes through every inner level on its way to a few leaves, so
// a cold tree's inner nodes are read far more often than any one leaf;
// a cache smaller than the tree then spends its misses on leaves.
//
// Admission keeps the hot leaves: queries centred where the data is (the
// paper's §6 workload) come back to the leaves of dense regions far more
// often than to the rest. Each shard counts its pages' gets, hit or miss,
// in a table of saturating counters, and a leaf put into a full shard
// evicts itself instead of the LRU victim leaf when the victim's count is
// strictly higher; a tie keeps the LRU order (TinyLFU admission: Einziger,
// Friedman & Manes, 2017). Halving the counters now and then lets pages
// hot now displace pages hot long ago. A shard allocates its table at its
// first overflow, so a cache the tree fits in never pays for it. On the
// cold CA benchmark (101 pages, 32 entries) admission took a query from
// 5.36 pages under plain LRU among the leaves to 4.89.
//
// The table has one hash, not a count-min sketch's several. A one-touch
// leaf that shares a hot leaf's counter is admitted as hot, but at 16
// counters an entry that is rare, and a second hash (the minimum of two
// counters, both bumped) made the same benchmark read more, not less:
// 4.92 pages a query against 4.89, at two workload seeds.
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
	// freq counts the gets of each page, hashed (slot), in saturating
	// counters that every get bumps; nil until the shard first overflows.
	// ticks counts the bumps since the counters were last halved.
	freq  []uint8
	shift uint8
	ticks int
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
	// ncFreqSlotsPerEntry sizes a shard's frequency table: 16 counters per
	// entry the shard holds (rounded up to a power of two), so the pages a
	// shard is asked for rarely share a counter with a cached one — a
	// 4-entry shard counts in 64 slots, a 64-entry one in 1,024 (1 KiB).
	ncFreqSlotsPerEntry = 16
	// ncFreqAgeFactor halves every counter each ncFreqAgeFactor × table-size
	// bumps (640 gets on a 4-entry shard), so a page hot long ago loses its
	// count to the pages hot now.
	ncFreqAgeFactor = 10
	// ncFibonacci is 2⁶⁴ / φ: a multiplicative hash whose top bits spread
	// a shard's page ids — which share their low bits, the shard's index —
	// over the table.
	ncFibonacci = 0x9E3779B97F4A7C15
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
			entries:  make(map[pagefile.PageID]*list.Element),
			lru:      [2]*list.List{list.New(), list.New()},
		}
	}
	return nc
}

func (nc *nodeCache) shard(id pagefile.PageID) *ncShard {
	return &nc.shards[int(id)&(len(nc.shards)-1)]
}

// slot is id's counter in s.freq.
func (s *ncShard) slot(id pagefile.PageID) *uint8 {
	return &s.freq[uint64(id)*ncFibonacci>>s.shift]
}

// bump counts a get of id, once the shard has a frequency table, and
// halves every counter each ncFreqAgeFactor × table-size bumps.
func (s *ncShard) bump(id pagefile.PageID) {
	if s.freq == nil {
		return
	}
	if c := s.slot(id); *c < math.MaxUint8 {
		*c++
	}
	if s.ticks++; s.ticks == ncFreqAgeFactor*len(s.freq) {
		for i := range s.freq {
			s.freq[i] >>= 1
		}
		s.ticks = 0
	}
}

// get returns the cached node for id, marking it most recently used. Hit or
// miss, it counts the get in id's frequency counter.
func (nc *nodeCache) get(id pagefile.PageID) (*packedNode, bool) {
	s := nc.shard(id)
	s.mu.Lock()
	s.bump(id)
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
// leaf in the shard, its least recently used inner node. A leaf is admitted
// by frequency: it evicts itself instead when that victim leaf's counter is
// strictly higher than its own (a tie keeps the LRU order). The first
// overflow allocates the shard's frequency table. Callers must only pass
// committed pages (maybeCacheNode enforces this).
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
	el := s.lru[lruOf(n)].PushFront(&ncEntry{id: id, n: n})
	s.entries[id] = el
	if len(s.entries) > s.capacity {
		if s.freq == nil {
			b := bits.Len(uint(ncFreqSlotsPerEntry*s.capacity - 1)) // log₂ of the table size
			s.freq, s.shift = make([]uint8, 1<<b), uint8(64-b)
		}
		from := s.lru[0]
		if from.Len() == 0 {
			from = s.lru[1]
		}
		victim := from.Back()
		if n.leaf() && *s.slot(victim.Value.(*ncEntry).id) > *s.slot(id) {
			victim = el
		}
		from.Remove(victim)
		delete(s.entries, victim.Value.(*ncEntry).id)
	}
	s.mu.Unlock()
}

// invalidate drops the entry for id, if the cache is enabled — called by
// dropPage immediately before a page is physically freed, so the PageID
// can be recycled without a stale decoded node surviving it.
func (nc *nodeCache) invalidate(id pagefile.PageID) {
	if nc == nil {
		return
	}
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
