package harness

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/spec"
)

// shapeRunner is the one memoized Runner the figure-shape tests share
// (TestTable2Shape, TestFigure9Shape, TestExtensionPointShape,
// TestEliminationStats, TestAllBenchmarksInstrumented), so a cell one of
// them ran is served from its cache to the next instead of run again.
var shapeRunner = sync.OnceValue(NewRunner)

// TestAllBenchmarksInstrumented is the central integration test: every
// benchmark must run to completion under both instrumentations with
// unchanged output (the paper selected exactly the 20 benchmarks with this
// property, Section 5.1.1).
func TestAllBenchmarksInstrumented(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	r := shapeRunner()
	for _, b := range spec.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			for _, mech := range []core.Mech{core.MechSoftBound, core.MechLowFat} {
				ov, res, err := r.Overhead(b, PaperConfig(mech))
				if err != nil {
					t.Errorf("%s: %v", mech, err)
					continue
				}
				if ov < 1.0 {
					t.Errorf("%s: overhead %.2f < 1.0 — instrumentation cannot be free", mech, ov)
				}
				if res.Stats.Checks == 0 {
					t.Errorf("%s: no checks executed", mech)
				}
				t.Logf("%s: overhead %.2fx, checks %d, wide %.2f%%",
					mech, ov, res.Stats.Checks, res.Stats.UnsafePercent())
			}
		})
	}
}
