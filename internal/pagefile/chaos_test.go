package pagefile_test

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/pagefile"
	"repro/internal/pagefile/chaos"
)

// The fault injector's tests, run against this package's stores.

// page returns a page-sized buffer filled with seed.
func page(seed byte) []byte { return bytes.Repeat([]byte{seed}, pagefile.PageSize) }

// TestChaosStoreTransientCountdown: a non-sticky countdown rule fails
// exactly one matching operation, and the store heals on the next.
func TestChaosStoreTransientCountdown(t *testing.T) {
	inner := pagefile.NewMemStore()
	cs := chaos.New(inner, 1)
	h := cs.MustAddRule(chaos.Rule{Op: chaos.OpRead, Fault: chaos.FaultPermanent, Countdown: 2})
	id, err := cs.Alloc() // Alloc doesn't match chaos.OpRead
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, pagefile.PageSize)
	for i := 0; i < 2; i++ {
		if err := cs.Read(id, buf); err != nil {
			t.Fatalf("read %d before countdown: %v", i, err)
		}
	}
	err = cs.Read(id, buf)
	if !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("countdown read: %v, want chaos.ErrInjected", err)
	}
	if h.Triggered() != 1 {
		t.Fatalf("triggered = %d, want 1", h.Triggered())
	}
	// Non-sticky: next read succeeds.
	if err := cs.Read(id, buf); err != nil {
		t.Fatalf("read after non-sticky trigger: %v", err)
	}
	if cs.InjectedCount(chaos.FaultPermanent) != 1 {
		t.Fatalf("injected count = %d", cs.InjectedCount(chaos.FaultPermanent))
	}
}

// TestChaosStorePageRule: a rule naming pages fires on operations on those
// pages only, and never on an Alloc, which names none.
func TestChaosStorePageRule(t *testing.T) {
	cs := chaos.New(pagefile.NewMemStore(), 1)
	a, _ := cs.Alloc()
	b, _ := cs.Alloc()
	h := cs.MustAddRule(chaos.Rule{Op: chaos.OpAny, Fault: chaos.FaultPermanent, Sticky: true, Pages: []pagefile.PageID{b}})
	if _, err := cs.Alloc(); err != nil {
		t.Fatalf("alloc under a page rule: %v", err)
	}
	buf := make([]byte, pagefile.PageSize)
	for i := 0; i < 2; i++ {
		if err := cs.Write(a, buf); err != nil {
			t.Fatalf("write of page %d: %v", a, err)
		}
		if err := cs.Read(a, buf); err != nil {
			t.Fatalf("read of page %d: %v", a, err)
		}
		if err := cs.Read(b, buf); !errors.Is(err, chaos.ErrInjected) {
			t.Fatalf("read of the rule's page %d: %v, want chaos.ErrInjected", b, err)
		}
	}
	if h.Triggered() != 2 {
		t.Fatalf("triggered = %d, want 2", h.Triggered())
	}
}

func TestChaosStoreProbabilisticDeterminism(t *testing.T) {
	run := func() int64 {
		inner := pagefile.NewMemStore()
		cs := chaos.New(inner, 42)
		h := cs.MustAddRule(chaos.Rule{Op: chaos.OpRead, Fault: chaos.FaultPermanent, Prob: 0.3})
		id, _ := cs.Alloc()
		buf := make([]byte, pagefile.PageSize)
		for i := 0; i < 200; i++ {
			_ = cs.Read(id, buf)
		}
		return h.Triggered()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed diverged: %d vs %d", a, b)
	}
	if a == 0 || a == 200 {
		t.Fatalf("implausible trigger count %d for p=0.3 over 200 ops", a)
	}
}

func TestChaosStoreBitFlipOnFileStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.pg")
	fs, err := pagefile.CreateFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	cs := chaos.New(fs, 7)
	id, _ := cs.Alloc()
	if err := cs.Write(id, page(9)); err != nil {
		t.Fatal(err)
	}
	cs.MustAddRule(chaos.Rule{Op: chaos.OpRead, Fault: chaos.FaultBitFlip, Countdown: 0, Bit: -1})
	buf := make([]byte, pagefile.PageSize)
	if err := cs.Read(id, buf); !errors.Is(err, pagefile.ErrChecksum) {
		t.Fatalf("bit-flipped read on checksummed store: %v, want pagefile.ErrChecksum", err)
	}
	// The damage is on the medium: later reads without injection fail too.
	if err := fs.Read(id, buf); !errors.Is(err, pagefile.ErrChecksum) {
		t.Fatalf("direct read after flip: %v, want pagefile.ErrChecksum", err)
	}
}

func TestChaosStoreTornWriteOnFileStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.pg")
	fs, err := pagefile.CreateFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	cs := chaos.New(fs, 7)
	id, _ := cs.Alloc()
	if err := cs.Write(id, page(1)); err != nil {
		t.Fatal(err)
	}
	cs.MustAddRule(chaos.Rule{Op: chaos.OpWrite, Fault: chaos.FaultTornWrite, Countdown: 0})
	// The torn write reports success — tearing is silent until read back.
	if err := cs.Write(id, page(50)); err != nil {
		t.Fatalf("torn write surfaced an error: %v", err)
	}
	buf := make([]byte, pagefile.PageSize)
	if err := cs.Read(id, buf); !errors.Is(err, pagefile.ErrChecksum) {
		t.Fatalf("read after torn write: %v, want pagefile.ErrChecksum", err)
	}
}

func TestChaosStoreRuleValidation(t *testing.T) {
	fs, err := pagefile.CreateFileStore(filepath.Join(t.TempDir(), "v.pg"))
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	cs := chaos.New(fs, 0)
	if _, err := cs.AddRule(chaos.Rule{Op: chaos.OpWrite, Fault: chaos.FaultBitFlip}); err == nil {
		t.Fatal("bit-flip on writes accepted")
	}
	if _, err := cs.AddRule(chaos.Rule{Op: chaos.OpRead, Fault: chaos.FaultTornWrite}); err == nil {
		t.Fatal("torn write on reads accepted")
	}
	if _, err := cs.AddRule(chaos.Rule{Op: chaos.OpAny, Fault: chaos.FaultBitFlip}); err != nil {
		t.Fatalf("bit-flip on a FileStore refused: %v", err)
	}
	if _, err := cs.AddRule(chaos.Rule{Op: chaos.OpAny, Fault: chaos.FaultTornWrite}); err != nil {
		t.Fatalf("torn write on a FileStore refused: %v", err)
	}
	// A MemStore has no medium to flip a bit of or tear a write on.
	mem := chaos.New(pagefile.NewMemStore(), 0)
	if _, err := mem.AddRule(chaos.Rule{Op: chaos.OpRead, Fault: chaos.FaultBitFlip}); err == nil {
		t.Fatal("bit-flip on a MemStore accepted")
	}
	if _, err := mem.AddRule(chaos.Rule{Op: chaos.OpWrite, Fault: chaos.FaultTornWrite}); err == nil {
		t.Fatal("torn write on a MemStore accepted")
	}
}

func TestChaosStoreLatencyRule(t *testing.T) {
	inner := pagefile.NewMemStore()
	cs := chaos.New(inner, 0)
	cs.MustAddRule(chaos.Rule{Op: chaos.OpRead, Fault: chaos.FaultLatency, Countdown: 0, Latency: 20 * time.Millisecond})
	id, _ := cs.Alloc()
	buf := make([]byte, pagefile.PageSize)
	start := time.Now()
	if err := cs.Read(id, buf); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("latency spike not applied: %v", d)
	}
}

// TestChaosStoreStickyCountdown: a sticky countdown rule lets n operations
// through and then fails every later one, of any kind, until disarmed.
func TestChaosStoreStickyCountdown(t *testing.T) {
	cs := chaos.New(pagefile.NewMemStore(), 0)
	h := cs.MustAddRule(chaos.Rule{Op: chaos.OpAny, Fault: chaos.FaultPermanent, Countdown: 2, Sticky: true})
	if _, err := cs.Alloc(); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Alloc(); err != nil {
		t.Fatal(err)
	}
	if h.Remaining() != 0 {
		t.Fatalf("remaining = %d after the countdown ran out, want 0", h.Remaining())
	}
	if _, err := cs.Alloc(); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("third op: %v, want chaos.ErrInjected", err)
	}
	buf := make([]byte, pagefile.PageSize)
	if err := cs.Read(0, buf); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("read after trip: %v", err)
	}
	if err := cs.Write(0, buf); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("write after trip: %v", err)
	}
	if h.Triggered() != 3 {
		t.Fatalf("triggered = %d, want 3", h.Triggered())
	}
	h.Arm(-1) // disarm
	if err := cs.Read(0, buf); err != nil {
		t.Fatalf("disarmed rule still failing: %v", err)
	}
	if h.Remaining() >= 0 {
		t.Fatalf("remaining = %d after disarm, want < 0", h.Remaining())
	}
}
