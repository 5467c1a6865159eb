package bench

import (
	"testing"

	"repro/internal/core"
)

// TestRackSweepDeterministic: two same-seed runs must render byte-identical
// output — the experiment is pure virtual time, so any divergence means
// host state (map order, wall clock) leaked into the model.
func TestRackSweepDeterministic(t *testing.T) {
	a := RackSweep(core.Config{}, 42, true).Format()
	b := RackSweep(core.Config{}, 42, true).Format()
	if a != b {
		t.Fatalf("same-seed racksweep runs differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
}
