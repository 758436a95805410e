package pagefile

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// RetryPolicy bounds RetryStore's retry loop. The zero value is filled
// with defaults by NewRetryStore: 3 total attempts, 100µs base backoff,
// 10ms cap.
type RetryPolicy struct {
	// MaxAttempts is the total tries per operation, including the first;
	// values below 2 disable retrying.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; each subsequent
	// retry doubles it, capped at MaxDelay. The actual sleep is jittered
	// uniformly over [d/2, d) to decorrelate retry storms.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Seed fixes the jitter sequence for reproducible schedules.
	Seed int64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Microsecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 10 * time.Millisecond
	}
	return p
}

// RetryStore wraps a Store and retries operations that fail with a
// transient error (IsTransient), sleeping a jittered exponential backoff
// between attempts. Permanent errors — checksum mismatches, out-of-range
// pages, real I/O failures — surface immediately: retrying them wastes
// latency and, for corruption, returns the same bytes anyway.
//
// It sits UNDER the BufferPool and VersionedStore in the stack (wrapping
// the chaos/base stores), so a read that needed three attempts is
// still exactly one buffer-pool miss: retries
// are a storage-latency phenomenon, not extra logical I/O. Each retry
// increments both the wrapper's own counter and the Retries field of the
// inner store's Stats, where experiment harnesses already look.
type RetryStore struct {
	Inner Store
	pol   RetryPolicy

	mu  sync.Mutex
	rng *rand.Rand

	retries atomic.Int64
	ctx     atomic.Pointer[context.Context]
}

// NewRetryStore wraps inner with the policy (zero fields defaulted).
func NewRetryStore(inner Store, pol RetryPolicy) *RetryStore {
	pol = pol.withDefaults()
	return &RetryStore{Inner: inner, pol: pol, rng: rand.New(rand.NewSource(pol.Seed))}
}

// Retries reports the total retry attempts performed (not counting each
// operation's first try).
func (rs *RetryStore) Retries() int64 { return rs.retries.Load() }

// BindContext makes backoff sleeps abort when ctx is cancelled, returning
// an unbind func. The binding is store-wide and last-writer-wins — it is
// a shutdown hook (Close binds a cancelled context so no goroutine sits
// out a backoff during teardown), not a per-query channel; per-query
// cancellation already interrupts queries between page fetches.
func (rs *RetryStore) BindContext(ctx context.Context) (unbind func()) {
	rs.ctx.Store(&ctx)
	return func() { rs.ctx.CompareAndSwap(&ctx, nil) }
}

// backoff returns the jittered sleep before retry attempt i (0-based).
func (rs *RetryStore) backoff(i int) time.Duration {
	d := rs.pol.BaseDelay << i
	if d > rs.pol.MaxDelay || d <= 0 {
		d = rs.pol.MaxDelay
	}
	rs.mu.Lock()
	j := d/2 + time.Duration(rs.rng.Int63n(int64(d/2)+1))
	rs.mu.Unlock()
	return j
}

// sleep waits out the backoff, or returns false early if the bound
// context is cancelled.
func (rs *RetryStore) sleep(d time.Duration) bool {
	ctxp := rs.ctx.Load()
	if ctxp == nil {
		time.Sleep(d)
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-(*ctxp).Done():
		return false
	}
}

// do runs op with the retry loop.
func (rs *RetryStore) do(op func() error) error {
	var err error
	for i := 0; ; i++ {
		err = op()
		if err == nil || !IsTransient(err) || i+1 >= rs.pol.MaxAttempts {
			return err
		}
		rs.retries.Add(1)
		rs.Inner.Stats().Retries.Add(1)
		if !rs.sleep(rs.backoff(i)) {
			return err
		}
	}
}

func (rs *RetryStore) Alloc() (PageID, error) {
	var id PageID
	err := rs.do(func() error {
		var e error
		id, e = rs.Inner.Alloc()
		return e
	})
	return id, err
}

func (rs *RetryStore) Read(id PageID, buf []byte) error {
	return rs.do(func() error { return rs.Inner.Read(id, buf) })
}

func (rs *RetryStore) Write(id PageID, buf []byte) error {
	return rs.do(func() error { return rs.Inner.Write(id, buf) })
}

func (rs *RetryStore) Free(id PageID) error {
	return rs.do(func() error { return rs.Inner.Free(id) })
}

func (rs *RetryStore) NumPages() int { return rs.Inner.NumPages() }
func (rs *RetryStore) Stats() *Stats { return rs.Inner.Stats() }

// VerifyPage forwards the scrubber's integrity probe; verification
// failures are permanent by construction, so no retry loop applies.
func (rs *RetryStore) VerifyPage(id PageID) error {
	if v, ok := rs.Inner.(PageVerifier); ok {
		return v.VerifyPage(id)
	}
	return nil
}
