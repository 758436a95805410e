package pagefile

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestBufferPoolSingleFlight is the dedicated regression test for the
// pool's single-flight read path: many goroutines missing on the same cold
// page at once must coalesce into exactly one inner-store read, not a
// thundering herd. The slow store holds the first read open long enough
// that every contender arrives while it is still in flight. Run with -race.
func TestBufferPoolSingleFlight(t *testing.T) {
	ms := NewMemStore()
	id, err := ms.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, PageSize)
	want[0] = 0xAB
	if err := ms.Write(id, want); err != nil {
		t.Fatal(err)
	}
	ms.Stats().Reset()
	slow := NewChaosStore(ms, 1)
	slow.MustAddRule(ChaosRule{Op: OpRead, Fault: FaultLatency, Prob: 1, Latency: 20 * time.Millisecond})

	bp := NewBufferPool(slow, 8)
	const contenders = 32
	var (
		start = make(chan struct{})
		wg    sync.WaitGroup
	)
	for i := 0; i < contenders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got, err := bp.Get(id)
			if err != nil {
				t.Errorf("Get: %v", err)
				return
			}
			if got[0] != 0xAB {
				t.Errorf("Get returned byte %#x, want 0xAB", got[0])
			}
		}()
	}
	close(start)
	wg.Wait()

	if reads, _, _, _ := ms.Stats().Snapshot(); reads != 1 {
		t.Fatalf("%d inner-store reads for one page, want 1 (single-flight broken)", reads)
	}
	hits, misses := bp.HitRate()
	if hits+misses != contenders {
		t.Fatalf("hits+misses = %d, want %d", hits+misses, contenders)
	}
}

// TestBufferPoolConcurrentGet hammers Get from many goroutines over a
// working set larger than the pool, so hits, misses, evictions and the
// lost-insert race all occur. Run with -race; this is the regression test
// for the unsynchronized LRU the pool shipped with.
func TestBufferPoolConcurrentGet(t *testing.T) {
	s := NewMemStore()
	const pages = 64
	ids := make([]PageID, pages)
	for i := range ids {
		id, err := s.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, PageSize)
		buf[0] = byte(id)
		if err := s.Write(id, buf); err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}

	bp := NewBufferPool(s, 16) // smaller than the working set: constant eviction
	const workers = 16
	const getsPerWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < getsPerWorker; i++ {
				id := ids[rng.Intn(pages)]
				got, err := bp.Get(id)
				if err != nil {
					t.Errorf("worker %d: Get(%d): %v", w, id, err)
					return
				}
				if got[0] != byte(id) {
					t.Errorf("worker %d: Get(%d) returned page stamped %d", w, id, got[0])
					return
				}
				if i%97 == 0 {
					bp.Invalidate(id) // concurrent drops must not corrupt other readers
				}
			}
		}(w)
	}
	wg.Wait()

	// Every Get counts exactly one hit or one miss.
	hits, misses := bp.HitRate()
	if hits+misses != workers*getsPerWorker {
		t.Fatalf("hits+misses = %d+%d = %d, want %d",
			hits, misses, hits+misses, workers*getsPerWorker)
	}
	if misses == 0 {
		t.Fatal("expected misses with a pool smaller than the working set")
	}
	// Concurrent misses on one page coalesce into a single store read, so
	// physical reads never exceed recorded misses.
	physReads, _, _, _ := s.Stats().Snapshot()
	if physReads > misses {
		t.Fatalf("%d physical reads > %d misses: concurrent misses not coalesced", physReads, misses)
	}
}
