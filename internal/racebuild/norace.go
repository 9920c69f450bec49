//go:build !race

// Package racebuild reports whether the race detector is compiled in.
// Tests consult it: under -race, sync.Pool discards a random share of
// what is put into it, so paths through xdr's encoder and wire-buffer
// pools (calls, replies and stream records) allocate, the detector
// instruments coroutine switches, and long runs crawl.
package racebuild

// Enabled reports whether the binary was built with the race detector.
//
//lint:allow unusedexport a test-support switch: only tests read it
const Enabled = false
