package bytecode

import (
	"repro/internal/ir"
	"repro/internal/vm"
)

// CompileNative compiles mod for the compiler tier without binding it, so
// tests can drive the native generator alone (cm nil selects the default
// cost model; prof selects the site-profiling opcodes).
func CompileNative(mod *ir.Module, cm *vm.CostModel, prof bool) *Program {
	return compileTier(mod, cm, prof, false, EngineCompiler)
}

// NatGenerate exposes the native generator to the external tests.
func NatGenerate(p *Program) string { return natGenerate(p) }
