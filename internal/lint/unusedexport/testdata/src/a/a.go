// Package a is the unusedexport fixture. Its consumer module (in
// consumer/) is nested under the fixture directory, so the loader reads
// it the way it reads the nested bench/ module for the repository.
package a

import "fmt"

// Unused has no reference anywhere.
func Unused() {} // want `^repro/internal/lint/unusedexport/testdata/src/a.Unused is exported but no non-test file uses it$`

// OnlyTested is referenced from a_test.go alone, which does not count.
func OnlyTested() int { return 1 } // want `a.OnlyTested is exported but no non-test file uses it`

// Limit is used by Blob.Size in this package.
const Limit = 8

// Nested is used only by the nested consumer module.
var Nested = 2

// Blob is used by the consumer module; Size implements the package's
// sizer interface and String implements fmt.Stringer, so neither is
// flagged though nothing calls them by name.
type Blob struct{ n int }

type sizer interface{ Size() int }

func (b Blob) Size() int { return min(b.n, Limit) }

func (b Blob) String() string { return fmt.Sprint(b.n) }

// Grow is a method no file calls.
func (b *Blob) Grow() { b.n++ } // want `a.Blob.Grow is exported but no non-test file uses it`

// Total sums the sizes of xs.
func Total(xs []sizer) int {
	t := 0
	for _, x := range xs {
		t += x.Size()
	}
	return t
}

//lint:allow unusedexport kept to show a waiver silences the rule
func Waived() {}

// Orphan is named only by its own method's receiver, which is no use.
type Orphan struct{} // want `a.Orphan is exported but no non-test file uses it`

func (Orphan) String() string { return "orphan" }
