package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestBadFixture runs the full suite over a package that violates every
// invariant and asserts each analyzer reports its documented message.
func TestBadFixture(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"./testdata/src/bad"}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("run(bad) = %d, want 2 (stderr: %s)", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"(walltime)", "breaks virtual-time determinism",
		"(seededrand)", "process-global stream",
		"(maporder)", "map iteration order is randomized",
		"(keyfmt)", "runtime-chosen precision",
		"(unusedexport)", "bad.Unreferenced is exported but no non-test file uses it",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("bad-fixture output missing %q; got:\n%s", want, out)
		}
	}
}

// TestCleanFixture asserts the repaired twin of the bad fixture passes
// silently.
func TestCleanFixture(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"./testdata/src/clean"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run(clean) = %d, want 0; output:\n%s%s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("run(clean) printed diagnostics:\n%s", stdout.String())
	}
}
