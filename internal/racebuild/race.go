//go:build race

package racebuild

// Enabled reports whether the binary was built with the race detector.
const Enabled = true
