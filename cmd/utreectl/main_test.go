package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/pagefile"
	"repro/uncertain"
)

// TestCommands builds a small LB index and drives every subcommand over
// it. stats, verify and query only read: the file is byte-identical after
// them.
func TestCommands(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lb.utree")
	utreectl := func(args ...string) string {
		t.Helper()
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatalf("utreectl %s: %v\n%s", strings.Join(args, " "), err, out.String())
		}
		return out.String()
	}
	expect := func(out string, pattern string) {
		t.Helper()
		if !regexp.MustCompile(pattern).MatchString(out) {
			t.Fatalf("output does not match %q:\n%s", pattern, out)
		}
	}

	expect(utreectl("build", "-index", path, "-dataset", "LB", "-scale", "0.01"), `^bulk-loaded U-tree over LB \(\d+ objects\)`)
	built, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	expect(utreectl("stats", "-index", path), `(?m)^objects: +[1-9]\d*$`)
	expect(utreectl("verify", "-index", path), `(?m)^ok: \d+ reachable pages scrubbed, none corrupt$`)
	rect := []string{"-index", path, "-rect", "0,0,5000,5000", "-prob", "0.5"}
	expect(utreectl(append([]string{"query"}, rect...)...), `^([4-9]|\d\d+) results in `)
	expect(utreectl(append([]string{"query", "-limit", "3"}, rect...)...), `^3 results in `)
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(built, after) {
		t.Fatal("stats, verify or query changed the index file")
	}

	// -mc-samples sets the index's k-NN sample count: the expected
	// distances (not the first line, which carries the wall time) move.
	nn := func(samples string) string {
		out := utreectl("nn", "-index", path, "-point", "5000,5000", "-k", "3", "-mc-samples", samples)
		expect(out, `^3 nearest neighbors of `)
		return out[strings.Index(out, "\n"):]
	}
	if nn("10") == nn("2000") {
		t.Fatal("-mc-samples 10 and 2000 gave the same expected distances")
	}
}

// TestUsageErrors: a malformed command line is a usage error, and touches
// no file: among them an odd coordinate count, an inverted rectangle, a
// NaN coordinate or threshold and a k below 1.
func TestUsageErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "none.utree")
	for _, args := range [][]string{
		nil,
		{"query"},
		{"frobnicate", "-index", path},
		{"nn", "-index", path, "-mc-samples", "-1"},
		{"query", "-index", path, "-rect", "5,5,1"},
		{"query", "-index", path, "-rect", "5,5,1,1"},
		{"query", "-index", path, "-rect", "0,NaN,1,1"},
		{"nn", "-index", path, "-point", "NaN,1"},
		{"query", "-index", path, "-rect", "0,0,1,1", "-prob", "NaN"},
		{"nn", "-index", path, "-point", "1,1", "-k", "0"},
	} {
		if err := run(args, new(bytes.Buffer)); !errors.Is(err, errUsage) {
			t.Errorf("utreectl %s: %v, want a usage error", strings.Join(args, " "), err)
		}
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("a usage error created the index file: %v", err)
	}
}

// TestUTR6File drives verify, query and nn over an index written before
// centre leaf entries (internal/core/testdata/utr6.idx, metadata magic
// UTR6, built by this command's `build -dataset LB -scale 0.01`): each
// prints what the version that wrote the file printed
// (testdata/utr6.golden.txt, its wall times left out) — but for three balls
// the radial pair terms of the marginal bounds validate that it integrated
// (objects 398 and 450, and 158 since the pair terms read their corner
// masses off the shape's quadrant table), which moves two queries' counts —
// and none changes the file. A WriteBatch that inserts a ball and deletes it again stamps
// the file UTR8, after which every command prints the same again but for
// verify's page count, one higher: the ball's record started a dense data
// page, since a UTR6 file's append page is a legacy one.
func TestUTR6File(t *testing.T) {
	golden, err := os.ReadFile("testdata/utr6.golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	fixture, err := os.ReadFile("../../internal/core/testdata/utr6.idx")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "utr6.idx")
	if err := os.WriteFile(path, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	wallTime := regexp.MustCompile(` in [0-9.]+(ns|µs|ms|s) \(`)
	transcript := func() string {
		t.Helper()
		var all strings.Builder
		for _, c := range strings.Split(string(golden), "\n") {
			cmd, ok := strings.CutPrefix(c, "$ utreectl ")
			if !ok {
				continue
			}
			args := strings.Fields(cmd)
			args = append([]string{args[0], "-index", path}, args[1:]...)
			var out bytes.Buffer
			if err := run(args, &out); err != nil {
				t.Fatalf("utreectl %s: %v\n%s", strings.Join(args, " "), err, out.String())
			}
			all.WriteString(c + "\n" + wallTime.ReplaceAllString(out.String(), " in T ("))
		}
		return all.String()
	}
	magic := func() string {
		t.Helper()
		store, err := pagefile.OpenFileStore(path)
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		meta := make([]byte, pagefile.PageSize)
		if err := store.Read(1, meta); err != nil {
			t.Fatal(err)
		}
		return string(meta[:4])
	}
	if m := magic(); m != "6RTU" { // "UTR6", little endian
		t.Fatalf("fixture magic %q, want UTR6", m)
	}
	if got := transcript(); got != string(golden) {
		t.Fatalf("on the UTR6 file:\n%s\nthe version that wrote it printed:\n%s", got, golden)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, fixture) {
		t.Fatalf("verify, query or nn changed the UTR6 file (%v)", err)
	}

	tree, err := uncertain.OpenTree(path, uncertain.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.WriteBatch(func(w uncertain.BatchWriter) error {
		if err := w.Insert(5000, uncertain.UniformCircle(uncertain.Pt(5000, 5000), 250)); err != nil {
			return err
		}
		return w.Delete(5000)
	}); err != nil {
		t.Fatal(err)
	}
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}
	if m := magic(); m != "8RTU" {
		t.Fatalf("magic after a WriteBatch %q, want UTR8", m)
	}
	// The ball's record started a dense data page, the append page from
	// then on: one reachable page more.
	after := strings.Replace(string(golden), "ok: 15 reachable pages", "ok: 16 reachable pages", 1)
	if got := transcript(); got != after {
		t.Fatalf("after a WriteBatch:\n%s\nwant:\n%s", got, after)
	}
}
