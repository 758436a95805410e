// Package chaos is the programmable fault harness the storage tests run
// under. A Store wraps a pagefile.Store and applies per-operation rules
// (read, write, alloc, free) that inject I/O errors (FaultPermanent: the
// operation fails with ErrInjected; a sticky countdown rule is a crash
// sweep's "fail everything after k operations"), medium-level bit flips
// (through the wrapped store's pagefile.Corrupter, so the checksum layer,
// not the injector, detects them), silent torn writes (through its
// pagefile.TornWriter), and latency. Triggers are per-operation
// probabilities or deterministic countdowns, all from one seeded generator,
// so a single-threaded workload replays the same failure schedule from the
// same seed; a concurrent one keeps the rate but not the placement. A
// latency rule that fires on every operation (Prob: 1), installed once the
// index is built, is how the cancellation tests get a slow store.
//
// Only tests import this package. Its own tests run it against pagefile's
// stores, in pagefile's chaos_test.go.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pagefile"
)

// ErrInjected is the error surfaced by injected faults.
var ErrInjected = errors.New("chaos: injected fault")

// Store wraps a pagefile.Store and injects faults by its rules.
//
// Fault semantics:
//
//   - FaultPermanent: the operation does not reach the inner store; the
//     error is ErrInjected.
//   - FaultBitFlip (reads): one payload bit is flipped on the medium
//     through the inner store's Corrupter, without resealing the checksum,
//     and the read then proceeds, so a checksummed store returns a
//     *pagefile.ChecksumError.
//   - FaultTornWrite (writes): only the first half of the page persists,
//     through the inner store's TornWriter; the call still reports
//     success, because a real torn write is silent until the page is next
//     read.
//   - FaultLatency: the operation stalls for the rule's Latency, then
//     proceeds (and remains subject to later rules).
type Store struct {
	inner pagefile.Store

	mu    sync.Mutex
	rng   *rand.Rand
	rules []*rule

	counts [faultKinds]atomic.Int64
}

// Op selects which operations a rule applies to.
type Op uint8

const (
	OpAny Op = iota
	OpRead
	OpWrite
	OpAlloc
	OpFree
)

// FaultKind is the failure a rule injects.
type FaultKind uint8

const (
	FaultPermanent FaultKind = iota
	FaultBitFlip
	FaultTornWrite
	FaultLatency
	faultKinds = 4
)

// Rule is one injection trigger. When Prob > 0 the rule fires on each
// matching operation with that probability; otherwise Countdown matching
// operations succeed before it fires (Countdown < 0 disarms the rule), and
// Sticky keeps it firing on every subsequent match — how a crash sweep
// fails every operation after the first k.
type Rule struct {
	Op    Op
	Fault FaultKind
	// Prob is the per-operation trigger probability (probabilistic mode).
	Prob float64
	// Countdown arms a deterministic trigger: fires after this many
	// matching operations pass through. Ignored when Prob > 0.
	Countdown int64
	// Sticky keeps a countdown rule firing after its first trigger.
	Sticky bool
	// Latency is the stall injected by FaultLatency rules.
	Latency time.Duration
	// Bit is the payload bit a FaultBitFlip rule flips; < 0 picks a random
	// bit per trigger.
	Bit int
	// Pages, when set, limits the rule to operations on these pages; an
	// Alloc names no page, so such a rule never matches one.
	Pages []pagefile.PageID
}

// rule is a Rule plus its mutable trigger state, under Store.mu.
type rule struct {
	Rule
	remaining int64 // countdown state; <0 disarmed
	fired     atomic.Int64
}

// RuleHandle exposes one installed rule's trigger state — crash sweeps
// watch Remaining to detect that a countdown outlived the operation under
// test, and tests read Triggered for their injection tallies.
type RuleHandle struct {
	cs *Store
	r  *rule
}

// Remaining reports the matching operations left before a countdown rule
// fires (<0 when disarmed; 0 when fired/firing). Probabilistic rules
// always report 0.
func (h *RuleHandle) Remaining() int64 {
	h.cs.mu.Lock()
	defer h.cs.mu.Unlock()
	return h.r.remaining
}

// Arm resets a countdown rule's trigger (n < 0 disarms).
func (h *RuleHandle) Arm(n int64) {
	h.cs.mu.Lock()
	defer h.cs.mu.Unlock()
	h.r.remaining = n
}

// Triggered reports how many times the rule has fired.
func (h *RuleHandle) Triggered() int64 { return h.r.fired.Load() }

// New wraps inner with an empty rule list; the seed fixes the
// probabilistic schedule.
func New(inner pagefile.Store, seed int64) *Store {
	return &Store{inner: inner, rng: rand.New(rand.NewSource(seed))}
}

// AddRule installs a rule and returns its handle. Rules are evaluated in
// installation order; the first non-latency rule that fires decides the
// operation's fate. A bit-flip rule needs an inner store that is a
// pagefile.Corrupter, and a torn-write rule one that is a
// pagefile.TornWriter: the damage is done on the medium or not at all.
func (cs *Store) AddRule(r Rule) (*RuleHandle, error) {
	switch r.Fault {
	case FaultBitFlip:
		if r.Op != OpRead && r.Op != OpAny {
			return nil, fmt.Errorf("chaos: bit-flip rules apply to reads, got op %d", r.Op)
		}
		if _, ok := cs.inner.(pagefile.Corrupter); !ok {
			return nil, fmt.Errorf("chaos: bit-flip rule on a %T, which is no pagefile.Corrupter", cs.inner)
		}
	case FaultTornWrite:
		if r.Op != OpWrite && r.Op != OpAny {
			return nil, fmt.Errorf("chaos: torn-write rules apply to writes, got op %d", r.Op)
		}
		if _, ok := cs.inner.(pagefile.TornWriter); !ok {
			return nil, fmt.Errorf("chaos: torn-write rule on a %T, which is no pagefile.TornWriter", cs.inner)
		}
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cr := &rule{Rule: r, remaining: r.Countdown}
	cs.rules = append(cs.rules, cr)
	return &RuleHandle{cs: cs, r: cr}, nil
}

// MustAddRule is AddRule for statically-valid rules; it panics on the
// validation errors AddRule reports.
func (cs *Store) MustAddRule(r Rule) *RuleHandle {
	h, err := cs.AddRule(r)
	if err != nil {
		panic(err)
	}
	return h
}

// InjectedCount reports how many faults of the given kind have fired.
func (cs *Store) InjectedCount(k FaultKind) int64 { return cs.counts[k].Load() }

// action is the decided fate of one operation.
type action struct {
	kind  FaultKind
	fire  bool
	bit   int
	delay time.Duration // accumulated latency-rule stalls
}

// decide evaluates the rules for op on page id (InvalidPage for an
// Alloc) and sleeps for the latency rules that fired. Latency rules
// accumulate into the delay and evaluation continues; the first other
// rule that fires wins.
func (cs *Store) decide(op Op, id pagefile.PageID) action {
	act := cs.evaluate(op, id)
	if act.delay > 0 {
		time.Sleep(act.delay)
	}
	return act
}

func (cs *Store) evaluate(op Op, id pagefile.PageID) action {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	var act action
	for _, r := range cs.rules {
		if r.Op != OpAny && r.Op != op || len(r.Pages) > 0 && !slices.Contains(r.Pages, id) {
			continue
		}
		// Bit-flip rules installed with OpAny still only apply to reads
		// (AddRule enforces Op ∈ {OpRead, OpAny}); same for torn writes.
		if r.Fault == FaultBitFlip && op != OpRead {
			continue
		}
		if r.Fault == FaultTornWrite && op != OpWrite {
			continue
		}
		fire := false
		if r.Prob > 0 {
			fire = cs.rng.Float64() < r.Prob
		} else if r.remaining == 0 {
			fire = true
			if !r.Sticky {
				r.remaining = -1
			}
		} else if r.remaining > 0 {
			r.remaining--
		}
		if !fire {
			continue
		}
		r.fired.Add(1)
		cs.counts[r.Fault].Add(1)
		if r.Fault == FaultLatency {
			act.delay += r.Latency
			continue
		}
		act.kind = r.Fault
		act.fire = true
		act.bit = r.Bit
		if r.Fault == FaultBitFlip && r.Bit < 0 {
			act.bit = cs.rng.Intn(pagefile.PageSize * 8)
		}
		break
	}
	return act
}

func (cs *Store) Alloc() (pagefile.PageID, error) {
	if cs.decide(OpAlloc, pagefile.InvalidPage).fire {
		return pagefile.InvalidPage, ErrInjected
	}
	return cs.inner.Alloc()
}

func (cs *Store) Read(id pagefile.PageID, buf []byte) error {
	act := cs.decide(OpRead, id)
	if !act.fire {
		return cs.inner.Read(id, buf)
	}
	if act.kind != FaultBitFlip {
		return ErrInjected
	}
	if err := cs.inner.(pagefile.Corrupter).CorruptPayload(id, act.bit); err != nil {
		return err
	}
	// The medium is now corrupt; read it back normally so a checksummed
	// store detects the damage itself.
	return cs.inner.Read(id, buf)
}

func (cs *Store) Write(id pagefile.PageID, buf []byte) error {
	act := cs.decide(OpWrite, id)
	if !act.fire {
		return cs.inner.Write(id, buf)
	}
	if act.kind != FaultTornWrite {
		return ErrInjected
	}
	// A torn write is silent: it reports success.
	return cs.inner.(pagefile.TornWriter).WriteTorn(id, buf, pagefile.PageSize/2)
}

func (cs *Store) Free(id pagefile.PageID) error {
	if cs.decide(OpFree, id).fire {
		return ErrInjected
	}
	return cs.inner.Free(id)
}

func (cs *Store) NumPages() int          { return cs.inner.NumPages() }
func (cs *Store) Stats() *pagefile.Stats { return cs.inner.Stats() }

// VerifyPage forwards the scrubber's integrity probe without injecting
// faults: injection happens on real reads and writes; the scrubber's job
// is to find the damage those left behind.
func (cs *Store) VerifyPage(id pagefile.PageID) error {
	if v, ok := cs.inner.(pagefile.PageVerifier); ok {
		return v.VerifyPage(id)
	}
	return nil
}
