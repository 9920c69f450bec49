package unusedexport_test

import (
	"testing"

	"repro/internal/lint/analysistest"
	"repro/internal/lint/unusedexport"
)

func TestUnusedExport(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), unusedexport.Analyzer, "a")
}
