package bytecode_test

import (
	"testing"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/spec"
)

// loweringConfigs are the instrumentation configurations the lowering tests
// compile every spec benchmark under.
func loweringConfigs() []harness.RunConfig {
	return []harness.RunConfig{
		harness.PaperConfig(core.MechSoftBound), harness.PaperConfig(core.MechLowFat),
		harness.HoistConfig(core.MechSoftBound), harness.HoistConfig(core.MechLowFat),
	}
}

// TestLoweringIdentical: neither site profiling nor forensics may change the
// lowering. Every check and metadata op carries its SiteID in imm and calls
// the VM's runtime operation, which bumps the profile and records forensics
// only when the VM does, so a program compiled for a profiled, a forensic or
// a profiled forensic VM must be op for op the program compiled for a plain
// one. An opcode twin or a forensics-only code path in the compiler fails
// here.
func TestLoweringIdentical(t *testing.T) {
	axes := []struct {
		name      string
		prof, rec bool
	}{{"profiled", true, false}, {"forensic", false, true}, {"forensic+profiled", true, true}}
	for _, b := range spec.All() {
		for _, cfg := range loweringConfigs() {
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

// TestOneOpPerInstr: every counted IR instruction lowers to exactly one
// counted op. The counted ops of each function must name distinct
// instructions and cover every non-phi instruction of the function, so no op
// retires two instructions and the op at a frame's pc always names the
// instruction a fault, step limit or interrupt stops at.
func TestOneOpPerInstr(t *testing.T) {
	for _, b := range spec.All() {
		for _, cfg := range loweringConfigs() {
			m, _, _ := prepare(t, b, cfg)
			for f, ins := range bytecode.CountedInstrs(bytecode.CompileFor(m, false, false)) {
				want := map[*ir.Instr]bool{}
				for _, blk := range f.Blocks {
					for _, in := range blk.Instrs {
						if in.Op != ir.OpPhi {
							want[in] = true
						}
					}
				}
				seen := map[*ir.Instr]bool{}
				for i, in := range ins {
					switch {
					case !want[in]:
						t.Errorf("%s/%s @%s: counted op %d names no non-phi instruction of the function", b.Name, cfg.Label, f.Name, i)
					case seen[in]:
						t.Errorf("%s/%s @%s: two counted ops name %s", b.Name, cfg.Label, f.Name, ir.FormatInstr(in))
					}
					seen[in] = true
				}
				for _, blk := range f.Blocks {
					for _, in := range blk.Instrs {
						if want[in] && !seen[in] {
							t.Errorf("%s/%s @%s: no counted op names %s", b.Name, cfg.Label, f.Name, ir.FormatInstr(in))
						}
					}
				}
			}
		}
	}
}
