package pagefile

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestBufferPoolConcurrentColdGets has many goroutines miss on the same
// cold page at once over a slow store. Each reads the store itself — the
// pool keeps no clean page and coalesces no reads — gets the right bytes,
// and leaves nothing buffered. Run with -race.
func TestBufferPoolConcurrentColdGets(t *testing.T) {
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

	if reads, _, _, _ := ms.Stats().Snapshot(); reads != contenders {
		t.Fatalf("%d inner-store reads for %d cold Gets, want one each", reads, contenders)
	}
	if hits, misses := bp.HitRate(); hits != 0 || misses != contenders {
		t.Fatalf("hit/miss counts %d/%d, want 0/%d", hits, misses, contenders)
	}
	if n := bp.Dirty(); n != 0 {
		t.Fatalf("buffer holds %d pages after cold Gets, want 0", n)
	}
}

// TestBufferPoolConcurrentGet hammers Get on committed pages from many
// goroutines while a writer puts, reads back, invalidates and flushes its
// own disjoint shadow pages past the buffer's bound — the tree's usage
// under snapshot isolation. Readers must always see their page's bytes and
// never be served from the buffer. Run with -race.
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
	shadow := make([]PageID, 48)
	for i := range shadow {
		shadow[i], _ = s.Alloc()
	}
	reads0, _, _, _ := s.Stats().Snapshot()

	bp := NewBufferPool(s, 16) // smaller than the writer's working set
	const workers = 8
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
			}
		}(w)
	}
	var writerGets int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		buf := make([]byte, PageSize)
		for i := 0; i < 2000; i++ {
			id := shadow[rng.Intn(len(shadow))]
			buf[0] = byte(id)
			if err := bp.Put(id, buf); err != nil {
				t.Errorf("writer: Put(%d): %v", id, err)
				return
			}
			got, err := bp.Get(id)
			writerGets++
			if err != nil || got[0] != byte(id) {
				t.Errorf("writer: Get(%d) = %v, %v", id, got, err)
				return
			}
			switch {
			case i%97 == 0:
				bp.Invalidate(id)
			case i%301 == 0:
				if err := bp.Flush(); err != nil {
					t.Errorf("writer: Flush: %v", err)
					return
				}
			}
		}
	}()
	wg.Wait()

	// Every Get counts exactly one hit or one miss, and every miss is one
	// store read.
	hits, misses := bp.HitRate()
	if hits+misses != workers*getsPerWorker+writerGets {
		t.Fatalf("hits+misses = %d+%d = %d, want %d",
			hits, misses, hits+misses, workers*getsPerWorker+writerGets)
	}
	if hits != writerGets {
		t.Fatalf("%d hits, want the writer's %d reads of its own pages", hits, writerGets)
	}
	if reads, _, _, _ := s.Stats().Snapshot(); reads-reads0 != misses {
		t.Fatalf("%d store reads for %d misses, want one each", reads-reads0, misses)
	}
	if err := bp.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := bp.Dirty(); n != 0 {
		t.Fatalf("buffer holds %d pages after Flush, want 0", n)
	}
}
