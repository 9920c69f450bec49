// Package bad compiles cleanly but violates every determinism
// invariant nfslint enforces. cmd/nfslint's tests run the multichecker
// over it and assert that all five analyzers fire.
package bad

import (
	"fmt"
	"math/rand"
	"strings"
	"time"
)

type Scenario struct {
	Loss float64
}

// Key commits a float with runtime-chosen precision: keyfmt.
func (sc Scenario) Key() string {
	return fmt.Sprintf("l%v", sc.Loss)
}

// Stamp reads the wall clock: walltime.
func Stamp() int64 {
	return time.Now().UnixNano()
}

// Pick draws from the process-global stream: seededrand.
func Pick(n int) int {
	return rand.Intn(n)
}

// Dump writes map entries in iteration order: maporder.
func Dump(m map[string]int, b *strings.Builder) {
	for k, v := range m {
		fmt.Fprintf(b, "%s=%d\n", k, v)
	}
}

// Unreferenced is exported, but no non-test file uses it: unusedexport.
func Unreferenced() {}
