package pagefile

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// ChaosStore wraps a Store and injects faults according to a programmable
// rule list — the failure-injection harness for exercising every error
// path in the layers above. Each rule names the operation kind it applies
// to, the fault it injects, and a trigger: either a per-operation
// probability or a countdown of matching operations. All randomness comes
// from one seeded generator, so a single-threaded workload replays the
// exact same failure schedule from the same seed (concurrent workloads
// keep the same fault *rate* but not the same placement).
//
// Fault semantics:
//
//   - FaultPermanent: the operation does not reach the inner store; the
//     error is ErrInjected.
//   - FaultBitFlip (reads): the inner store's payload is corrupted via
//     its Corrupter capability — one bit flipped on the medium without
//     resealing the checksum — and the read then proceeds normally, so a
//     checksummed store returns a *ChecksumError and an unchecksummed one
//     silently returns wrong bytes (the failure mode checksums close).
//     Without a Corrupter, the flip happens in the returned buffer only.
//   - FaultTornWrite (writes): only the first half of the page persists,
//     via the inner store's TornWriter capability; the call still reports
//     success, because a real torn write is silent until the page is next
//     read. Without a TornWriter the tail is zeroed and written normally
//     (detectability is then up to the page's own decode validation).
//   - FaultLatency: the operation stalls for the rule's Latency, then
//     proceeds (and remains subject to later rules).
type ChaosStore struct {
	Inner Store

	mu    sync.Mutex
	rng   *rand.Rand
	rules []*chaosRule

	counts [faultKinds]atomic.Int64
}

// ChaosOp selects which operations a rule applies to.
type ChaosOp uint8

const (
	OpAny ChaosOp = iota
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

func (k FaultKind) String() string {
	switch k {
	case FaultPermanent:
		return "permanent"
	case FaultBitFlip:
		return "bitflip"
	case FaultTornWrite:
		return "torn"
	case FaultLatency:
		return "latency"
	}
	return "unknown"
}

// ChaosRule is one injection trigger. When Prob > 0 the rule fires on each
// matching operation with that probability; otherwise Countdown matching
// operations succeed before it fires (Countdown < 0 disarms the rule), and
// Sticky keeps it firing on every subsequent match — how a crash sweep
// fails every operation after the first k.
type ChaosRule struct {
	Op    ChaosOp
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
	Pages []PageID
}

// chaosRule is a rule plus its mutable trigger state, under ChaosStore.mu.
type chaosRule struct {
	ChaosRule
	remaining int64 // countdown state; <0 disarmed
	fired     atomic.Int64
}

// RuleHandle exposes one installed rule's trigger state — crash sweeps
// watch Remaining to detect that a countdown outlived the operation under
// test, and chaos experiments read Triggered for their injection tallies.
type RuleHandle struct {
	cs *ChaosStore
	r  *chaosRule
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

// NewChaosStore wraps inner with an empty rule list; the seed fixes the
// probabilistic schedule.
func NewChaosStore(inner Store, seed int64) *ChaosStore {
	return &ChaosStore{Inner: inner, rng: rand.New(rand.NewSource(seed))}
}

// AddRule installs a rule and returns its handle. Rules are evaluated in
// installation order; the first non-latency rule that fires decides the
// operation's fate.
func (cs *ChaosStore) AddRule(r ChaosRule) (*RuleHandle, error) {
	switch r.Fault {
	case FaultBitFlip:
		if r.Op != OpRead && r.Op != OpAny {
			return nil, fmt.Errorf("pagefile: bit-flip rules apply to reads, got op %d", r.Op)
		}
	case FaultTornWrite:
		if r.Op != OpWrite && r.Op != OpAny {
			return nil, fmt.Errorf("pagefile: torn-write rules apply to writes, got op %d", r.Op)
		}
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cr := &chaosRule{ChaosRule: r, remaining: r.Countdown}
	cs.rules = append(cs.rules, cr)
	return &RuleHandle{cs: cs, r: cr}, nil
}

// MustAddRule is AddRule for statically-valid rules; it panics on the
// validation errors AddRule reports.
func (cs *ChaosStore) MustAddRule(r ChaosRule) *RuleHandle {
	h, err := cs.AddRule(r)
	if err != nil {
		panic(err)
	}
	return h
}

// InjectedCount reports how many faults of the given kind have fired.
func (cs *ChaosStore) InjectedCount(k FaultKind) int64 {
	if int(k) >= faultKinds {
		return 0
	}
	return cs.counts[k].Load()
}

// chaosAction is the decided fate of one operation.
type chaosAction struct {
	kind  FaultKind
	fire  bool
	bit   int
	rule  *chaosRule
	delay time.Duration // accumulated latency-rule stalls
}

// decide evaluates the rules for op on page id (InvalidPage for an
// Alloc). Latency rules accumulate into the action's delay and evaluation
// continues; the first other rule that fires wins.
func (cs *ChaosStore) decide(op ChaosOp, id PageID) chaosAction {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	var act chaosAction
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
		act.rule = r
		act.bit = r.Bit
		if r.Fault == FaultBitFlip && r.Bit < 0 {
			act.bit = cs.rng.Intn(PageSize * 8)
		}
		break
	}
	return act
}

func (cs *ChaosStore) Alloc() (PageID, error) {
	act := cs.decide(OpAlloc, InvalidPage)
	if act.delay > 0 {
		time.Sleep(act.delay)
	}
	if act.fire {
		return InvalidPage, ErrInjected
	}
	return cs.Inner.Alloc()
}

func (cs *ChaosStore) Read(id PageID, buf []byte) error {
	act := cs.decide(OpRead, id)
	if act.delay > 0 {
		time.Sleep(act.delay)
	}
	if act.fire {
		switch act.kind {
		case FaultBitFlip:
			if c, ok := cs.Inner.(Corrupter); ok {
				if err := c.CorruptPayload(id, act.bit); err != nil {
					return err
				}
				// The medium is now corrupt; read it back normally so a
				// checksummed store detects the damage itself.
				return cs.Inner.Read(id, buf)
			}
			if err := cs.Inner.Read(id, buf); err != nil {
				return err
			}
			buf[act.bit/8] ^= 1 << (act.bit % 8)
			return nil
		default:
			return ErrInjected
		}
	}
	return cs.Inner.Read(id, buf)
}

func (cs *ChaosStore) Write(id PageID, buf []byte) error {
	act := cs.decide(OpWrite, id)
	if act.delay > 0 {
		time.Sleep(act.delay)
	}
	if act.fire {
		switch act.kind {
		case FaultTornWrite:
			if tw, ok := cs.Inner.(TornWriter); ok {
				if err := tw.WriteTorn(id, buf, PageSize/2); err != nil {
					return err
				}
				return nil // torn writes are silent
			}
			torn := make([]byte, PageSize)
			copy(torn, buf[:PageSize/2])
			return cs.Inner.Write(id, torn)
		default:
			return ErrInjected
		}
	}
	return cs.Inner.Write(id, buf)
}

func (cs *ChaosStore) Free(id PageID) error {
	act := cs.decide(OpFree, id)
	if act.delay > 0 {
		time.Sleep(act.delay)
	}
	if act.fire {
		return ErrInjected
	}
	return cs.Inner.Free(id)
}

func (cs *ChaosStore) NumPages() int { return cs.Inner.NumPages() }
func (cs *ChaosStore) Stats() *Stats { return cs.Inner.Stats() }

// VerifyPage forwards the scrubber's integrity probe without injecting
// faults: injection happens on real reads and writes; the scrubber's job
// is to find the damage those left behind.
func (cs *ChaosStore) VerifyPage(id PageID) error {
	if v, ok := cs.Inner.(PageVerifier); ok {
		return v.VerifyPage(id)
	}
	return nil
}
