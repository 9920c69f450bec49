// Package a exercises the maporder analyzer: map ranges that reach an
// output sink (directly, or through a returned slice) without a sort
// are flagged; order-independent iteration stays clean.
package a

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

func printUnsorted(m map[string]int, w io.Writer) {
	for k, v := range m { // want `map iteration order is randomized`
		fmt.Fprintf(w, "%s=%d\n", k, v)
	}
}

func buildUnsorted(m map[string]int, b *strings.Builder) {
	for k := range m { // want `map iteration order is randomized`
		b.WriteString(k)
	}
}

func encodeUnsorted(m map[string][]int, enc *json.Encoder) error {
	for _, v := range m { // want `map iteration order is randomized`
		if err := enc.Encode(v); err != nil {
			return err
		}
	}
	return nil
}

func keysUnsorted(m map[string]int) []string {
	var keys []string
	for k := range m { // want `built from unsorted map iteration and returned`
		keys = append(keys, k)
	}
	return keys
}

func firstMatch(m map[string]int, want int) string {
	for k, v := range m { // want `a value returned from inside the loop`
		if v == want {
			return k
		}
	}
	return ""
}

func firstErr(m map[string]string) error {
	for k, v := range m { // want `a value returned from inside the loop`
		if v == "" {
			return fmt.Errorf("key %q is empty", k)
		}
	}
	return nil
}

// anyNegative returns only constants: whichever key trips it, the
// answer is the same.
func anyNegative(m map[string]int) bool {
	for _, v := range m {
		if v < 0 {
			return false
		}
	}
	return true
}

// keysSorted is the canonical repair: collect, sort, then emit.
func keysSorted(m map[string]int, w io.Writer) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s=%d\n", k, m[k])
	}
}

// valuesSorted: sort.Slice on the collected slice also counts.
func valuesSorted(m map[string]float64) []float64 {
	var xs []float64
	for _, v := range m {
		xs = append(xs, v)
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return xs
}

// sum is order-independent and clean (netsim.Totals's pattern).
func sum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// copyMap writes only into another map: clean.
func copyMap(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func deliberate(m map[string]int, b *strings.Builder) {
	//lint:allow maporder fixture proves suppression works
	for k := range m {
		b.WriteString(k)
	}
}
