package bytecode_test

import (
	"slices"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/spec"
)

// stepLimitStops is how many evenly spaced step limits the sweep below
// stops each run at.
const stepLimitStops = 3

// TestStepLimitSweep stops every spec benchmark, under both instrumented
// paper configurations with site profiling on, at stepLimitStops evenly
// spaced step limits: k/(stepLimitStops+1) of the full run's instruction
// count. A stop lands mid-run, so on the compiler tier it usually falls
// inside a native batch: the batch bails and the invocation finishes on the
// bytecode dispatch loop. At every stop both bytecode engines must match the
// tree engine bit for bit: exit code, output, verdict, vm.Stats and site
// profile. Phi copies count as instructions but not as steps, so a late
// limit can lie past a phi-heavy run's last step and let it complete; every
// cell must still stop mid-run at least once.
func TestStepLimitSweep(t *testing.T) {
	mechs := []core.Mech{core.MechSoftBound, core.MechLowFat}
	for _, b := range spec.All() {
		for _, mech := range mechs {
			cfg := harness.PaperConfig(mech)
			t.Run(b.Name+"/"+cfg.Label, func(t *testing.T) {
				t.Parallel()
				m, vopts, _ := prepare(t, b, cfg)
				vopts.SiteProfile = true
				full := runUnder(t, bytecode.EngineTree, m, vopts)
				if full.err != nil {
					t.Fatalf("reference run: %v", full.err)
				}
				midRun := 0
				for k := uint64(1); k <= stepLimitStops; k++ {
					o := vopts
					o.MaxSteps = full.stats.Instrs * k / (stepLimitStops + 1)
					ref := runUnder(t, bytecode.EngineTree, m, o)
					switch v := describeErr(ref.err); v {
					case "runtime|step limit exceeded":
						midRun++
					case "ok":
					default:
						t.Fatalf("limit %d: tree verdict %q, want the step limit or a complete run", o.MaxSteps, v)
					}
					for _, kind := range diffEngines() {
						got := runUnder(t, kind, m, o)
						if got.code != ref.code || got.output != ref.output {
							t.Errorf("limit %d: %v exit %d output %q, tree exit %d output %q",
								o.MaxSteps, kind, got.code, got.output, ref.code, ref.output)
						}
						if gv, rv := describeErr(got.err), describeErr(ref.err); gv != rv {
							t.Errorf("limit %d: %v verdict %q, tree %q", o.MaxSteps, kind, gv, rv)
						}
						if got.stats != ref.stats {
							t.Errorf("limit %d: stats differ\n%v: %+v\ntree: %+v", o.MaxSteps, kind, got.stats, ref.stats)
						}
						if !slices.Equal(got.sites, ref.sites) {
							t.Errorf("limit %d: %v site profile differs from the tree's", o.MaxSteps, kind)
						}
					}
				}
				if midRun == 0 {
					t.Errorf("no limit stopped the run mid-way (%d instructions)", full.stats.Instrs)
				}
			})
		}
	}
}
