package bytecode_test

import (
	"testing"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/spec"
)

// TestProfiledLoweringIdentical: site profiling must not change the
// lowering. Every check and metadata op carries its SiteID in imm and bumps
// the profile through a nil-safe counter, so a program compiled for a
// profiled VM must be op for op the program compiled for a plain one.
func TestProfiledLoweringIdentical(t *testing.T) {
	cfgs := []harness.RunConfig{harness.PaperConfig(core.MechSoftBound), harness.PaperConfig(core.MechLowFat)}
	for _, b := range spec.All() {
		for _, cfg := range cfgs {
			m, _, _ := prepare(t, b, cfg)
			plain := bytecode.OpStream(bytecode.CompileNative(m, nil, false))
			prof := bytecode.OpStream(bytecode.CompileNative(m, nil, true))
			if len(plain) != len(prof) {
				t.Errorf("%s/%s: %d ops plain, %d profiled", b.Name, cfg.Label, len(plain), len(prof))
				continue
			}
			for i := range plain {
				if plain[i] != prof[i] {
					t.Errorf("%s/%s: lowering differs under profiling:\n plain    %s\n profiled %s", b.Name, cfg.Label, plain[i], prof[i])
					break
				}
			}
		}
	}
}
