package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/pagefile"
	"repro/internal/pagefile/chaos"
	"repro/internal/updf"
)

// The data pages (datapage.go): the slot layout, its append and reader, and
// the append page as the tree keeps it.

// dataTree is an empty committed 2-D tree on a memory store, for appending
// raw records.
func dataTree(t *testing.T, opt Options) *Tree {
	t.Helper()
	opt.Dim = 2
	tree, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// storedRecord is the record at addr as the store holds it: what a snapshot
// reads.
func storedRecord(t *testing.T, tree *Tree, addr DataAddr) ([]byte, error) {
	t.Helper()
	return bytesOf(RecordFromPage(storedPage(t, tree.store, addr.Page), addr.Slot))
}

// bytesOf drops a record read's legacy flag, for the tests of raw records.
func bytesOf(rec []byte, _ bool, err error) ([]byte, error) { return rec, err }

// bothReads reads a record as the writer and as a snapshot does.
func bothReads(t *testing.T, tree *Tree) map[string]func(DataAddr) ([]byte, error) {
	return map[string]func(DataAddr) ([]byte, error){
		"writer": func(a DataAddr) ([]byte, error) { return bytesOf(tree.readRecord(a)) },
		"store":  func(a DataAddr) ([]byte, error) { return storedRecord(t, tree, a) },
	}
}

// pageRecords returns the records of a data page in slot order — nil for a
// slot that reads as ErrBadSlot — and whether the page is a legacy one.
func pageRecords(page []byte) (recs [][]byte, legacy bool) {
	word := binary.LittleEndian.Uint16(page)
	for slot := range word &^ denseFlag {
		rec, _, _ := RecordFromPage(page, slot)
		recs = append(recs, bytes.Clone(rec))
	}
	return recs, word&denseFlag == 0
}

// layPage lays recs out as a data page, slot i holding recs[i]: dense, or
// as a UTR7 writer laid out its legacy pages — a 4-byte slot each, a nil
// record's length 0 (a tombstone; on a dense page a nil record reads as
// ErrBadSlot too). The ids in the records are the caller's (legacyRecord).
func layPage(t testing.TB, recs [][]byte, legacy bool) []byte {
	t.Helper()
	page, slot, free := make([]byte, pagefile.PageSize), 2, pagefile.PageSize
	if legacy {
		slot = 4
	}
	for i, rec := range recs {
		if free -= len(rec); free < dataHeader+slot*(i+1) {
			t.Fatalf("%d records do not fit a page", len(recs))
		}
		copy(page[free:], rec)
		binary.LittleEndian.PutUint16(page[dataHeader+slot*i:], uint16(free))
		if legacy {
			binary.LittleEndian.PutUint16(page[dataHeader+slot*i+2:], uint16(len(rec)))
		}
	}
	count := uint16(len(recs))
	if !legacy {
		count |= denseFlag
	}
	binary.LittleEndian.PutUint16(page, count)
	if len(recs) > 0 {
		binary.LittleEndian.PutUint16(page[2:], uint16(free))
	}
	return page
}

// legacyRecord is object record rec as a UTR7 writer wrote it: its id a
// u64.
func legacyRecord(rec []byte) []byte {
	id, n := binary.Varint(rec)
	return append(binary.LittleEndian.AppendUint64(nil, uint64(id)), rec[n:]...)
}

// recordTag is the byte after a record's id: keyedTag or a pdf's type tag.
func recordTag(rec []byte, legacy bool) byte {
	n := 8
	if !legacy {
		_, n = binary.Varint(rec)
	}
	return rec[n]
}

// rewritePage replaces data page id in the store with what edit makes of
// its records, laid out anew (layPage), dense or legacy.
func rewritePage(t *testing.T, s pagefile.Store, id pagefile.PageID, legacy bool, edit func(recs [][]byte)) {
	t.Helper()
	recs, _ := pageRecords(storedPage(t, s, id))
	edit(recs)
	if err := s.Write(id, layPage(t, recs, legacy)); err != nil {
		t.Fatal(err)
	}
}

// TestDataPageAppendRead: appends reach the dirty map, not the store, until
// Commit; the writer reads them back before and after it; small records
// share a page.
func TestDataPageAppendRead(t *testing.T) {
	tree := dataTree(t, Options{})
	recs := [][]byte{
		[]byte("alpha"),
		[]byte("beta-longer-record"),
		bytes.Repeat([]byte{0xCD}, 1000),
	}
	addrs := make([]DataAddr, len(recs))
	for i, r := range recs {
		a, err := tree.appendData(r)
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = a
	}
	if _, ok := tree.dirty[addrs[0].Page]; !ok {
		t.Fatalf("append page %d is not in the dirty map", addrs[0].Page)
	}
	if _, err := storedRecord(t, tree, addrs[0]); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("uncommitted record in the store's page: %v, want ErrBadSlot", err)
	}
	for committed := range 2 {
		for i, a := range addrs {
			got, err := bytesOf(tree.readRecord(a))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, recs[i]) {
				t.Fatalf("record %d mismatch (committed %d)", i, committed)
			}
		}
		if err := tree.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if addrs[0].Page != addrs[1].Page {
		t.Fatal("small records did not share a page")
	}
}

// TestDataPageOverflow: a record that does not fit the append page goes to
// a fresh one.
func TestDataPageOverflow(t *testing.T) {
	tree := dataTree(t, Options{})
	big := bytes.Repeat([]byte{1}, 1500)
	distinct := map[pagefile.PageID]bool{}
	for i := 0; i < 5; i++ {
		a, err := tree.appendData(big)
		if err != nil {
			t.Fatal(err)
		}
		distinct[a.Page] = true
		if !tree.isFresh(a.Page) {
			t.Fatalf("record %d on page %d, which the batch did not allocate", i, a.Page)
		}
	}
	// 1500-byte records: two fit per 4096-byte page, so 5 records → 3 pages.
	if len(distinct) != 3 {
		t.Fatalf("got %d pages, want 3 (layout: %v)", len(distinct), distinct)
	}
}

func TestDataPageTooLarge(t *testing.T) {
	tree := dataTree(t, Options{})
	if _, err := tree.appendData(make([]byte, pagefile.PageSize)); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("err = %v, want ErrRecordTooLarge", err)
	}
	// An empty record's slot would read as a deleted one.
	if _, err := tree.appendData(nil); err == nil {
		t.Fatal("empty record appended")
	}
	if n := len(tree.dirty); n != 0 {
		t.Fatalf("refused records left %d dirty pages", n)
	}
}

// TestDataPageZeroLengthSlot: files written before deletes stopped touching
// the data pages carry legacy pages with slots whose length was zeroed in
// place. Such a page still opens as the append page: the dead slot reads
// as ErrBadSlot and its neighbours are intact, and the first new record
// starts a fresh dense page instead of going after them.
func TestDataPageZeroLengthSlot(t *testing.T) {
	tree := dataTree(t, Options{Persist: true})
	a, _ := tree.appendData([]byte("doomed"))
	b, _ := tree.appendData([]byte("survivor"))
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	rewritePage(t, tree.store, a.Page, true, func(recs [][]byte) { recs[a.Slot] = nil })

	re, _, err := Open(tree.store, tree.MetaPage(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := re.appendData([]byte("newcomer"))
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Commit(); err != nil {
		t.Fatal(err)
	}
	if c.Page == a.Page || c.Slot != 0 || re.appendPage != c.Page {
		t.Fatalf("append after opening a legacy page went to %+v, want slot 0 of a fresh append page", c)
	}
	for from, read := range bothReads(t, re) {
		if _, err := read(a); !errors.Is(err, ErrBadSlot) {
			t.Fatalf("zero-length slot read (%s): %v, want ErrBadSlot", from, err)
		}
		for addr, want := range map[DataAddr]string{b: "survivor", c: "newcomer"} {
			if got, err := read(addr); err != nil || string(got) != want {
				t.Fatalf("record %+v (%s): %q, %v; want %q", addr, from, got, err, want)
			}
		}
	}
	if recs, legacy := pageRecords(storedPage(t, re.store, a.Page)); !legacy || len(recs) != 2 {
		t.Fatalf("the legacy page now holds %d records (legacy %v), want its 2 untouched", len(recs), legacy)
	}
}

// TestDataPageDensity: bulk-loaded 2-D keyed balls with ids of two varint
// bytes (64 to 2¹³ − 1) fill their data pages as the dense layout says: a
// record of 2 + 1 + 2 + 16 = 21 B and a 2-byte slot, so ⌊4,092 / 23⌋ = 177
// to a page and ⌈N / 177⌉ pages, every page but the last full.
func TestDataPageDensity(t *testing.T) {
	const n, perPage = 3000, (pagefile.PageSize - 4) / (2 + 1 + 2 + 16 + 2)
	rng := rand.New(rand.NewSource(60))
	objs := make([]Object, n)
	for i := range objs {
		c := geom.Point{rng.Float64() * 5000, rng.Float64() * 5000}
		objs[i] = Object{ID: int64(64 + i), PDF: updf.NewUniformBall(c, 25)}
	}
	tree := bulkTree(t, Options{Dim: 2}, objs)
	perPageSeen := map[pagefile.PageID]int{}
	for _, a := range tree.dir.all() {
		perPageSeen[a.Page]++
	}
	if want := (n + perPage - 1) / perPage; len(perPageSeen) != want {
		t.Fatalf("%d keyed balls on %d data pages, want ⌈%d / %d⌉ = %d", n, len(perPageSeen), n, perPage, want)
	}
	for page, k := range perPageSeen {
		if k != perPage && page != tree.appendPage {
			t.Fatalf("sealed data page %d holds %d records, want %d", page, k, perPage)
		}
	}
}

// TestDataPageGroupedRead: on a real tree, a range query's refinement reads
// each data page once, however many of its candidates' records it needs —
// the paper's grouping "by their associated disk addresses" — and counts
// exactly those reads as its refinement I/Os.
func TestDataPageGroupedRead(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	rc := &readCounter{Store: pagefile.NewMemStore(), reads: make(map[pagefile.PageID]int)}
	tree := bulkTree(t, Options{Dim: 2, Store: rc}, makeObjects(3000, 1000, rng))
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	data := map[pagefile.PageID]bool{}
	for _, a := range tree.dir.all() {
		data[a.Page] = true
	}
	records, ios := 0, 0
	for q := 0; q < 30; q++ {
		rc.reads = make(map[pagefile.PageID]int)
		_, stats, err := rangeQuery(tree, Query{Rect: randomQueryRect(rng, 1000), Prob: 0.05 + 0.9*rng.Float64()})
		if err != nil {
			t.Fatal(err)
		}
		pages := 0
		for id, n := range rc.reads {
			if !data[id] {
				continue
			}
			if pages++; n != 1 {
				t.Fatalf("query %d read data page %d %d times, want once", q, id, n)
			}
		}
		if pages != stats.RefinementIOs {
			t.Fatalf("query %d read %d data pages, counted %d refinement I/Os", q, pages, stats.RefinementIOs)
		}
		records += stats.ProbComputations + stats.MarginalValidated + stats.MarginalPruned - stats.ShapeDecided
		ios += stats.RefinementIOs
	}
	t.Logf("%d records read on %d page reads", records, ios)
	if ios == 0 || records <= ios {
		t.Fatalf("fixture: %d records read on %d page reads; want pages shared by candidates", records, ios)
	}
}

func TestDataPageBadSlot(t *testing.T) {
	tree := dataTree(t, Options{})
	a, _ := tree.appendData([]byte("x"))
	if _, err := bytesOf(tree.readRecord(DataAddr{Page: a.Page, Slot: 99})); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("err = %v, want ErrBadSlot", err)
	}
}

// TestDataPageManyRecordsStress: 2,000 records over many pages read back
// from the writer's bytes before the commit and from the store after it.
func TestDataPageManyRecordsStress(t *testing.T) {
	tree := dataTree(t, Options{})
	rng := rand.New(rand.NewSource(6))
	type kept struct {
		addr DataAddr
		data []byte
	}
	var all []kept
	for i := 0; i < 2000; i++ {
		rec := make([]byte, 10+rng.Intn(200))
		rng.Read(rec)
		a, err := tree.appendData(rec)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, kept{a, rec})
	}
	check := func(from string, read func(DataAddr) ([]byte, error)) {
		t.Helper()
		for i, k := range all {
			got, err := read(k.addr)
			if err != nil {
				t.Fatalf("record %d (%s): %v", i, from, err)
			}
			if !bytes.Equal(got, k.data) {
				t.Fatalf("record %d corrupted (%s)", i, from)
			}
		}
	}
	check("writer, before the commit", bothReads(t, tree)["writer"])
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	for from, read := range bothReads(t, tree) {
		check(from, read)
	}
}

// TestDataPageWriteFaultRollsBack: a failed write of the append page at
// Commit surfaces, publishes nothing, and the batch rolls back; the tree
// then takes the same objects again, and every record reads back.
func TestDataPageWriteFaultRollsBack(t *testing.T) {
	cs := chaos.New(pagefile.NewMemStore(), 0)
	tree := dataTree(t, Options{Store: cs})
	objs := makeObjects(60, 1000, rand.New(rand.NewSource(62)))
	insert := func(objs []Object) {
		t.Helper()
		for _, o := range objs {
			if err := tree.Insert(o); err != nil {
				t.Fatal(err)
			}
		}
	}
	insert(objs[:30])
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	epoch, page := tree.Epoch(), tree.appendPage
	insert(objs[30:])
	h := cs.MustAddRule(chaos.Rule{Op: chaos.OpWrite, Fault: chaos.FaultPermanent, Pages: []pagefile.PageID{page}})
	if err := tree.Commit(); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("commit with the data page's write failing: %v, want ErrInjected", err)
	}
	if h.Triggered() != 1 || tree.Epoch() != epoch {
		t.Fatalf("rule fired %d times, epoch %d (was %d); want 1 and unpublished", h.Triggered(), tree.Epoch(), epoch)
	}
	if err := tree.Rollback(); err != nil {
		t.Fatal(err)
	}
	h.Arm(-1)
	if tree.Len() != 30 {
		t.Fatalf("Len %d after the rollback, want 30", tree.Len())
	}
	insert(objs[30:])
	if err := tree.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	snap := tree.Snapshot()
	defer snap.Close()
	if err := snap.CheckRecords(); err != nil {
		t.Fatal(err)
	}
	for _, o := range objs {
		a, _ := tree.RecordAddr(o.ID)
		rec, err := storedRecord(t, tree, a)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := decodeObject(rec, false, tree.shapes); err != nil || got.ID != o.ID {
			t.Fatalf("object %d at %+v reads back %d (%v)", o.ID, a, got.ID, err)
		}
	}
}
