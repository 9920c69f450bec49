//go:build !race

// Package racebuild reports whether the race detector is compiled in.
// Allocation tests consult it: under -race, sync.Pool discards a random
// share of the objects put into it, so pooled paths allocate by design.
package racebuild

// Enabled reports whether the binary was built with the race detector.
//
//lint:allow unusedexport a test-support switch: only the allocation tests read it
const Enabled = false
