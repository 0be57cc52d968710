package harness

import (
	"testing"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/spec"
)

// loopHeavy are benchmarks whose dynamic check counts are dominated by
// affine accesses in counted loops, picked empirically from the full
// ablation (BENCH_CHECKOPT.md): hoisting removes well over half of their
// checks, so the 20%-reduction floor asserted below has a wide margin.
var loopHeavy = []string{"179art", "456hmmer"}

// TestHoistReducesDynamicChecks is the check-optimization acceptance gate:
// on loop-heavy benchmarks, dominance+hoisting must cut the total dynamic
// check count (per-iteration checks plus executed range checks) by at least
// 20% over dominance alone, for both mechanisms — and the tree and bytecode
// engines must agree on every statistic of the hoisted runs.
func TestHoistReducesDynamicChecks(t *testing.T) {
	bc := NewRunner()
	bc.SetAxes(RunAxes{Engine: bytecode.EngineBytecode})
	tree := NewRunner()
	tree.SetAxes(RunAxes{Engine: bytecode.EngineTree})
	for _, name := range loopHeavy {
		b := spec.ByName(name)
		if b == nil {
			t.Fatalf("unknown benchmark %q", name)
		}
		for _, mech := range []core.Mech{core.MechSoftBound, core.MechLowFat} {
			t.Run(name+"/"+mech.String(), func(t *testing.T) {
				dom, err := bc.Run(b, PaperConfig(mech))
				if err != nil || dom.Err != nil {
					t.Fatalf("dominance run failed: %v / %v", err, dom.Err)
				}
				hoist, err := bc.Run(b, HoistConfig(mech))
				if err != nil || hoist.Err != nil {
					t.Fatalf("hoist run failed: %v / %v", err, hoist.Err)
				}
				if hoist.Output != dom.Output {
					t.Errorf("hoisting changed program output")
				}
				domTotal := dom.Stats.Checks + dom.Stats.RangeChecks
				hoistTotal := hoist.Stats.Checks + hoist.Stats.RangeChecks
				red := reductionPct(domTotal, hoistTotal)
				t.Logf("checks: dom=%d dom+hoist=%d (%d range), reduction %.1f%%",
					domTotal, hoistTotal, hoist.Stats.RangeChecks, red)
				if red < 20 {
					t.Errorf("hoisting reduced dynamic checks by only %.1f%% (dom=%d hoist=%d), want >= 20%%",
						red, domTotal, hoistTotal)
				}
				if hoist.InstrStats == nil || hoist.InstrStats.Opt.ChecksHoisted == 0 {
					t.Error("no checks were hoisted at instrumentation time")
				}
				treeRes, err := tree.Run(b, HoistConfig(mech))
				if err != nil || treeRes.Err != nil {
					t.Fatalf("tree hoist run failed: %v / %v", err, treeRes.Err)
				}
				if treeRes.Stats != hoist.Stats {
					t.Errorf("engines disagree on hoisted-run statistics:\ntree:     %+v\nbytecode: %+v",
						treeRes.Stats, hoist.Stats)
				}
			})
		}
	}
}
