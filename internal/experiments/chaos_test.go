package experiments

import (
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/chaos"
)

// The built-in chaos battery repeats scenarios from examples/chaos/,
// which go:embed cannot reach from this package. Each built-in scenario
// must match the example of the same name, so a fix to one copy cannot
// leave the other behind.
func TestChaosBatteryMatchesExamples(t *testing.T) {
	builtin, err := chaos.Parse(chaosScenarios)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob("../../examples/chaos/*.yaml")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no chaos examples found: %v", err)
	}
	examples := map[string]*chaos.Scenario{}
	for _, path := range paths {
		scs, err := chaos.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range scs {
			examples[sc.Name] = sc
		}
	}
	for _, sc := range builtin {
		ex, ok := examples[sc.Name]
		switch {
		case !ok:
			t.Errorf("%s: no example of that name in examples/chaos", sc.Name)
		case sc.Description != ex.Description:
			t.Errorf("%s: description %q, the example's %q", sc.Name, sc.Description, ex.Description)
		case !reflect.DeepEqual(sc.Fleet, ex.Fleet):
			t.Errorf("%s: fleet %+v, the example's %+v", sc.Name, sc.Fleet, ex.Fleet)
		case !reflect.DeepEqual(sc.Events, ex.Events):
			t.Errorf("%s: events %+v, the example's %+v", sc.Name, sc.Events, ex.Events)
		}
	}
}
