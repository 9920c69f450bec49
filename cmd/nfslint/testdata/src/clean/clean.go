// Command clean does the same jobs as package bad the deterministic
// way, and its main uses every one of them; nfslint must stay silent on
// it.
package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

type Scenario struct {
	Loss float64
}

type Sim struct{ seed int64 }

func (s *Sim) Seed() int64 { return s.seed }

// Key pins the float encoding explicitly.
func (sc Scenario) Key() string {
	return "l" + strconv.FormatFloat(sc.Loss, 'g', -1, 64)
}

// Pick draws from a stream derived from the scenario seed with a
// repo-unique salt.
func Pick(s *Sim, n int) int {
	rng := rand.New(rand.NewSource(s.Seed()*0x9E3779B1 + 0x636c6e31))
	return rng.Intn(n)
}

// Dump emits map entries in sorted key order.
func Dump(m map[string]int, b *strings.Builder) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(b, "%s=%d\n", k, m[k])
	}
}

func main() {
	var b strings.Builder
	Dump(map[string]int{"pick": Pick(&Sim{seed: 1}, 10)}, &b)
	fmt.Print(Scenario{Loss: 0.01}.Key(), "\n", b.String())
}
