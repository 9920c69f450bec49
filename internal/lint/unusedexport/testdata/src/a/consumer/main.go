// Command consumer is a second module whose uses of package a count.
package main

import (
	"fmt"

	"repro/internal/lint/unusedexport/testdata/src/a"
)

func main() {
	fmt.Println(a.Total(nil), a.Nested, a.Blob{})
}
