package bytecode_test

import (
	"testing"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/spec"
)

// TestLoweringIdentical: neither site profiling nor forensics may change the
// lowering. Every check and metadata op carries its SiteID in imm and calls
// the VM's runtime operation, which bumps the profile and records forensics
// only when the VM does, so a program compiled for a profiled, a forensic or
// a profiled forensic VM must be op for op the program compiled for a plain
// one. An opcode twin or a forensics-only code path in the compiler fails
// here.
func TestLoweringIdentical(t *testing.T) {
	cfgs := []harness.RunConfig{
		harness.PaperConfig(core.MechSoftBound), harness.PaperConfig(core.MechLowFat),
		harness.HoistConfig(core.MechSoftBound), harness.HoistConfig(core.MechLowFat),
	}
	axes := []struct {
		name      string
		prof, rec bool
	}{{"profiled", true, false}, {"forensic", false, true}, {"forensic+profiled", true, true}}
	for _, b := range spec.All() {
		for _, cfg := range cfgs {
			m, _, _ := prepare(t, b, cfg)
			plain := bytecode.OpStream(bytecode.CompileFor(m, false, false))
			for _, ax := range axes {
				got := bytecode.OpStream(bytecode.CompileFor(m, ax.prof, ax.rec))
				if len(plain) != len(got) {
					t.Errorf("%s/%s: %d ops plain, %d %s", b.Name, cfg.Label, len(plain), len(got), ax.name)
					continue
				}
				for i := range plain {
					if plain[i] != got[i] {
						t.Errorf("%s/%s: lowering differs when %s:\n plain %s\n %s %s",
							b.Name, cfg.Label, ax.name, plain[i], ax.name, got[i])
						break
					}
				}
			}
		}
	}
}
