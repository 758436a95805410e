package pagefile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// fillPage returns a page-sized buffer with a recognizable pattern.
func fillPage(seed byte) []byte {
	buf := make([]byte, PageSize)
	for i := range buf {
		buf[i] = seed + byte(i%251)
	}
	return buf
}

func TestFileStoreChecksumRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v2.pg")
	fs, err := CreateFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	id, err := fs.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	want := fillPage(7)
	if err := fs.Write(id, want); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	fs, err = OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	got := make([]byte, PageSize)
	if err := fs.Read(id, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("payload corrupted across reopen")
	}
	if err := fs.VerifyPage(id); err != nil {
		t.Fatalf("VerifyPage on intact page: %v", err)
	}
}

func TestFileStoreDetectsBitFlip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v2.pg")
	fs, err := CreateFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	id, _ := fs.Alloc()
	if err := fs.Write(id, fillPage(3)); err != nil {
		t.Fatal(err)
	}
	if err := fs.CorruptPayload(id, 12345); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	err = fs.Read(id, buf)
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("read of corrupt page: %v, want ErrChecksum", err)
	}
	var ce *ChecksumError
	if !errors.As(err, &ce) || ce.Page != id || ce.Want == ce.Got {
		t.Fatalf("checksum error detail wrong: %+v", ce)
	}
	if err := fs.VerifyPage(id); !errors.Is(err, ErrChecksum) {
		t.Fatalf("VerifyPage on corrupt page: %v, want ErrChecksum", err)
	}
}

func TestFileStoreDetectsTornWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v2.pg")
	fs, err := CreateFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	id, _ := fs.Alloc()
	if err := fs.Write(id, fillPage(1)); err != nil {
		t.Fatal(err)
	}
	// A torn write persists half the new page over the old one; the stale
	// trailer no longer matches.
	if err := fs.WriteTorn(id, fillPage(99), PageSize/2); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	if err := fs.Read(id, buf); !errors.Is(err, ErrChecksum) {
		t.Fatalf("read of torn page: %v, want ErrChecksum", err)
	}
}

// TestOpenFileStoreRefusesV1 writes a v1 header by hand — the magic with
// a version field of 0 (files from before the field existed) or 1 — and
// checks that OpenFileStore refuses it with ErrOldFormat.
func TestOpenFileStoreRefusesV1(t *testing.T) {
	for _, version := range []uint32{0, 1} {
		header := make([]byte, PageSize)
		binary.LittleEndian.PutUint32(header[0:], fileMagic)
		binary.LittleEndian.PutUint32(header[4:], 1) // page count: the header
		binary.LittleEndian.PutUint32(header[8:], uint32(InvalidPage))
		binary.LittleEndian.PutUint32(header[headerVersionOff:], version)
		path := filepath.Join(t.TempDir(), "v1.pg")
		if err := os.WriteFile(path, header, 0o644); err != nil {
			t.Fatal(err)
		}
		fs, err := OpenFileStore(path)
		if !errors.Is(err, ErrOldFormat) {
			if fs != nil {
				fs.Close()
			}
			t.Fatalf("version %d header: OpenFileStore = %v, want ErrOldFormat", version, err)
		}
	}
}

// TestChaosStoreTransientCountdown: a non-sticky countdown rule fails
// exactly one matching operation, and the store heals on the next.
func TestChaosStoreTransientCountdown(t *testing.T) {
	inner := NewMemStore()
	cs := NewChaosStore(inner, 1)
	h := cs.MustAddRule(ChaosRule{Op: OpRead, Fault: FaultPermanent, Countdown: 2})
	id, err := cs.Alloc() // Alloc doesn't match OpRead
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	for i := 0; i < 2; i++ {
		if err := cs.Read(id, buf); err != nil {
			t.Fatalf("read %d before countdown: %v", i, err)
		}
	}
	err = cs.Read(id, buf)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("countdown read: %v, want ErrInjected", err)
	}
	if h.Triggered() != 1 {
		t.Fatalf("triggered = %d, want 1", h.Triggered())
	}
	// Non-sticky: next read succeeds.
	if err := cs.Read(id, buf); err != nil {
		t.Fatalf("read after non-sticky trigger: %v", err)
	}
	if cs.InjectedCount(FaultPermanent) != 1 {
		t.Fatalf("injected count = %d", cs.InjectedCount(FaultPermanent))
	}
}

// TestChaosStorePageRule: a rule naming pages fires on operations on those
// pages only, and never on an Alloc, which names none.
func TestChaosStorePageRule(t *testing.T) {
	cs := NewChaosStore(NewMemStore(), 1)
	a, _ := cs.Alloc()
	b, _ := cs.Alloc()
	h := cs.MustAddRule(ChaosRule{Op: OpAny, Fault: FaultPermanent, Sticky: true, Pages: []PageID{b}})
	if _, err := cs.Alloc(); err != nil {
		t.Fatalf("alloc under a page rule: %v", err)
	}
	buf := make([]byte, PageSize)
	for i := 0; i < 2; i++ {
		if err := cs.Write(a, buf); err != nil {
			t.Fatalf("write of page %d: %v", a, err)
		}
		if err := cs.Read(a, buf); err != nil {
			t.Fatalf("read of page %d: %v", a, err)
		}
		if err := cs.Read(b, buf); !errors.Is(err, ErrInjected) {
			t.Fatalf("read of the rule's page %d: %v, want ErrInjected", b, err)
		}
	}
	if h.Triggered() != 2 {
		t.Fatalf("triggered = %d, want 2", h.Triggered())
	}
}

func TestChaosStoreProbabilisticDeterminism(t *testing.T) {
	run := func() int64 {
		inner := NewMemStore()
		cs := NewChaosStore(inner, 42)
		h := cs.MustAddRule(ChaosRule{Op: OpRead, Fault: FaultPermanent, Prob: 0.3})
		id, _ := cs.Alloc()
		buf := make([]byte, PageSize)
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
	fs, err := CreateFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	cs := NewChaosStore(fs, 7)
	id, _ := cs.Alloc()
	if err := cs.Write(id, fillPage(9)); err != nil {
		t.Fatal(err)
	}
	cs.MustAddRule(ChaosRule{Op: OpRead, Fault: FaultBitFlip, Countdown: 0, Bit: -1})
	buf := make([]byte, PageSize)
	if err := cs.Read(id, buf); !errors.Is(err, ErrChecksum) {
		t.Fatalf("bit-flipped read on checksummed store: %v, want ErrChecksum", err)
	}
	// The damage is on the medium: later reads without injection fail too.
	if err := fs.Read(id, buf); !errors.Is(err, ErrChecksum) {
		t.Fatalf("direct read after flip: %v, want ErrChecksum", err)
	}
}

func TestChaosStoreTornWriteOnFileStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.pg")
	fs, err := CreateFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	cs := NewChaosStore(fs, 7)
	id, _ := cs.Alloc()
	if err := cs.Write(id, fillPage(1)); err != nil {
		t.Fatal(err)
	}
	cs.MustAddRule(ChaosRule{Op: OpWrite, Fault: FaultTornWrite, Countdown: 0})
	// The torn write reports success — tearing is silent until read back.
	if err := cs.Write(id, fillPage(50)); err != nil {
		t.Fatalf("torn write surfaced an error: %v", err)
	}
	buf := make([]byte, PageSize)
	if err := cs.Read(id, buf); !errors.Is(err, ErrChecksum) {
		t.Fatalf("read after torn write: %v, want ErrChecksum", err)
	}
}

func TestChaosStoreRuleValidation(t *testing.T) {
	cs := NewChaosStore(NewMemStore(), 0)
	if _, err := cs.AddRule(ChaosRule{Op: OpWrite, Fault: FaultBitFlip}); err == nil {
		t.Fatal("bit-flip on writes accepted")
	}
	if _, err := cs.AddRule(ChaosRule{Op: OpRead, Fault: FaultTornWrite}); err == nil {
		t.Fatal("torn write on reads accepted")
	}
}

func TestChaosStoreLatencyRule(t *testing.T) {
	inner := NewMemStore()
	cs := NewChaosStore(inner, 0)
	cs.MustAddRule(ChaosRule{Op: OpRead, Fault: FaultLatency, Countdown: 0, Latency: 20 * time.Millisecond})
	id, _ := cs.Alloc()
	buf := make([]byte, PageSize)
	start := time.Now()
	if err := cs.Read(id, buf); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("latency spike not applied: %v", d)
	}
}

func TestBufferPoolEvictionWriteFaultKeepsFrameDirty(t *testing.T) {
	inner := NewMemStore()
	cs := NewChaosStore(inner, 0)
	pool := NewBufferPool(cs, 1)
	a, _ := cs.Alloc()
	b, _ := cs.Alloc()
	if err := pool.Put(a, fillPage(1)); err != nil {
		t.Fatal(err)
	}
	// All further writes fail: evicting dirty page a must not lose it.
	wf := cs.MustAddRule(ChaosRule{Op: OpWrite, Fault: FaultPermanent, Countdown: 0, Sticky: true})
	err := pool.Put(b, fillPage(2))
	if err == nil {
		t.Fatal("eviction write fault not surfaced by Put")
	}
	if got := pool.Dirty(); got != 2 {
		t.Fatalf("dirty frames = %d, want 2 (victim kept + new put)", got)
	}
	// Both pages must still be readable from the pool with their contents.
	for id, seed := range map[PageID]byte{a: 1, b: 2} {
		data, err := pool.Get(id)
		if err != nil {
			t.Fatalf("get %d: %v", id, err)
		}
		if !bytes.Equal(data, fillPage(seed)) {
			t.Fatalf("page %d contents lost", id)
		}
	}
	// Flush keeps failing while the fault is armed, frames stay dirty...
	if err := pool.Flush(); err == nil {
		t.Fatal("flush under write fault succeeded")
	}
	if pool.Dirty() != 2 {
		t.Fatalf("dirty after failed flush = %d, want 2", pool.Dirty())
	}
	// ...and succeeds once the store heals, with nothing lost.
	wf.Arm(-1)
	if err := pool.Flush(); err != nil {
		t.Fatalf("flush after heal: %v", err)
	}
	if pool.Dirty() != 0 {
		t.Fatalf("dirty after heal flush = %d", pool.Dirty())
	}
	buf := make([]byte, PageSize)
	for id, seed := range map[PageID]byte{a: 1, b: 2} {
		if err := inner.Read(id, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, fillPage(seed)) {
			t.Fatalf("page %d not durable after heal", id)
		}
	}
}

// TestBufferPoolGetServesDataWhenEvictionFails checks that a read never
// writes back: with every store write failing, a Get of a clean page serves
// its data, the full buffer's dirty page stays buffered, and the failure
// surfaces only at the Flush that tries the write.
func TestBufferPoolGetServesDataWhenEvictionFails(t *testing.T) {
	inner := NewMemStore()
	cs := NewChaosStore(inner, 0)
	pool := NewBufferPool(cs, 1)
	a, _ := cs.Alloc()
	b, _ := cs.Alloc()
	if err := cs.Write(b, fillPage(8)); err != nil {
		t.Fatal(err)
	}
	if err := pool.Put(a, fillPage(1)); err != nil {
		t.Fatal(err)
	}
	wf := cs.MustAddRule(ChaosRule{Op: OpWrite, Fault: FaultPermanent, Countdown: 0, Sticky: true})
	for i := 0; i < 2; i++ {
		data, err := pool.Get(b)
		if err != nil {
			t.Fatalf("get with failing writes: %v", err)
		}
		if !bytes.Equal(data, fillPage(8)) {
			t.Fatal("wrong data served")
		}
	}
	if n := pool.Dirty(); n != 1 {
		t.Fatalf("buffer holds %d pages after clean Gets, want the 1 dirty page", n)
	}
	if err := pool.Flush(); err == nil {
		t.Fatal("flush under write fault succeeded")
	}
	wf.Arm(-1)
	if err := pool.Flush(); err != nil {
		t.Fatalf("flush after heal: %v", err)
	}
	buf := make([]byte, PageSize)
	if err := inner.Read(a, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, fillPage(1)) {
		t.Fatal("dirty page lost while writes failed")
	}
}
