package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
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
// no file.
func TestUsageErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "none.utree")
	for _, args := range [][]string{
		nil,
		{"query"},
		{"frobnicate", "-index", path},
		{"nn", "-index", path, "-mc-samples", "-1"},
	} {
		if err := run(args, new(bytes.Buffer)); !errors.Is(err, errUsage) {
			t.Errorf("utreectl %s: %v, want a usage error", strings.Join(args, " "), err)
		}
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("a usage error created the index file: %v", err)
	}
}
