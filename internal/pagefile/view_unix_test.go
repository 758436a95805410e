//go:build unix

package pagefile

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestFileViewContract: View returns a written page's payload inside the
// mapping — the bytes Read returns, at the same address every time, seeing
// a later Write — and counts one read; it refuses a reserved, a freed and
// an out-of-range page, a flipped bit fails it with a *ChecksumError, and
// after Close it fails while a view taken before still reads.
func TestFileViewContract(t *testing.T) {
	fs, err := CreateFileStore(filepath.Join(t.TempDir(), "view.pg"))
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	var ids [4]PageID
	for i := range ids {
		if ids[i], err = fs.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids[:2] {
		if err := fs.Write(id, fillPage(byte(id))); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Free(ids[3]); err != nil {
		t.Fatal(err)
	}

	reads := fs.Stats().Reads.Load()
	v, err := fs.View(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := fs.Stats().Reads.Load() - reads; got != 1 {
		t.Fatalf("a view counted %d reads, want 1", got)
	}
	if !bytes.Equal(v, fillPage(byte(ids[0]))) || len(v) != PageSize || cap(v) != PageSize {
		t.Fatal("the view is not the page's payload")
	}
	if again, err := fs.View(ids[0]); err != nil || &again[0] != &v[0] {
		t.Fatalf("a second view of page %d lies elsewhere (err %v)", ids[0], err)
	}
	if err := fs.Write(ids[0], fillPage(9)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v, fillPage(9)) {
		t.Fatal("the mapping does not see a write")
	}

	for _, c := range []struct {
		id   PageID
		want error
	}{{ids[2], nil}, {ids[3], ErrPageFreed}, {ids[3] + 1, ErrPageOutOfRange}} {
		if _, err := fs.View(c.id); err == nil || c.want != nil && !errors.Is(err, c.want) {
			t.Errorf("View(%d) = %v, want an error matching %v", c.id, err, c.want)
		}
	}

	if err := fs.CorruptPayload(ids[1], 77); err != nil {
		t.Fatal(err)
	}
	var ce *ChecksumError
	if _, err := fs.View(ids[1]); !errors.As(err, &ce) || ce.Page != ids[1] {
		t.Fatalf("View of a flipped page: %v, want a checksum error naming page %d", err, ids[1])
	}

	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.View(ids[0]); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("View after Close: %v, want os.ErrClosed", err)
	}
	if !bytes.Equal(v, fillPage(9)) {
		t.Fatal("a view taken before Close reads other bytes")
	}
}

// TestFileViewTruncatedFile: a page past the end of a file cut short under
// an open store fails View with ErrFault, not a crash, and a page the cut
// kept still views.
func TestFileViewTruncatedFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cut.pg")
	fs, err := CreateFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	var ids [10]PageID
	for i := range ids {
		if ids[i], err = fs.Alloc(); err != nil {
			t.Fatal(err)
		}
		if err := fs.Write(ids[i], fillPage(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fs.View(ids[9]); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, 3*stride); err != nil { // the header and ids[0:2]
		t.Fatal(err)
	}
	if _, err := fs.View(ids[9]); !errors.Is(err, ErrFault) {
		t.Fatalf("View of page %d past the end: %v, want ErrFault", ids[9], err)
	}
	if v, err := fs.View(ids[0]); err != nil || !bytes.Equal(v, fillPage(0)) {
		t.Fatalf("View of page %d the cut kept: %v", ids[0], err)
	}
}

// TestFileViewConcurrent: views taken from several goroutines at once, of
// pages in two regions that are mapped while they run, read the bytes
// written, while a writer rewrites other pages.
func TestFileViewConcurrent(t *testing.T) {
	fs, err := CreateFileStore(filepath.Join(t.TempDir(), "many.pg"))
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	ids := make([]PageID, regionPages+16)
	for i := range ids {
		if ids[i], err = fs.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	viewed := append(ids[:8:8], ids[len(ids)-8:]...)
	for _, id := range viewed {
		if err := fs.Write(id, fillPage(byte(id))); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				for _, id := range viewed {
					if v, err := fs.View(id); err != nil || !bytes.Equal(v, fillPage(byte(id))) {
						t.Errorf("View(%d): %v, or other bytes", id, err)
						return
					}
				}
			}
		}()
	}
	for r := 0; r < 50; r++ {
		for _, id := range ids[8:16] {
			if err := fs.Write(id, fillPage(byte(r))); err != nil {
				t.Error(err)
			}
		}
	}
	wg.Wait()
}
