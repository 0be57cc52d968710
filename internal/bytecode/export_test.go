package bytecode

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/vm"
)

// CompileNative compiles mod for the compiler tier without binding it, so
// tests can drive the native generator alone (cm nil selects the default
// cost model; prof compiles for site-profiled VMs).
func CompileNative(mod *ir.Module, cm *vm.CostModel, prof bool) *Program {
	return compileTier(mod, cm, prof, false, EngineCompiler)
}

// CompileFor compiles mod for VMs with the given site-profiling and
// forensics settings (default cost model, bytecode tier), so tests can
// compare lowerings across those axes.
func CompileFor(mod *ir.Module, prof, rec bool) *Program {
	return compileTier(mod, nil, prof, rec, EngineBytecode)
}

// CountedInstrs maps each compiled function to the IR instructions its
// counted ops name, in pc order, so tests can check that the lowering
// retires every instruction through exactly one op.
func CountedInstrs(p *Program) map[*ir.Func][]*ir.Instr {
	out := make(map[*ir.Func][]*ir.Instr, len(p.fns))
	for _, fn := range p.fns {
		var ins []*ir.Instr
		for pc := range fn.ops {
			if o := &fn.ops[pc]; o.code < opUncountedStart {
				ins = append(ins, o.instr)
			}
		}
		out[fn.ir] = ins
	}
	return out
}

// NatGenerate exposes the native generator to the external tests.
func NatGenerate(p *Program) string { return natGenerate(p) }

// OpStream renders every op of p, function by function — opcode, registers,
// imm, x, cost and access width — one line per op, so tests can compare two
// lowerings.
func OpStream(p *Program) []string {
	var out []string
	for _, fn := range p.fns {
		for pc := range fn.ops {
			o := &fn.ops[pc]
			out = append(out, fmt.Sprintf("%s:%d code=%d dst=%d a=%d b=%d c=%d d=%d imm=%d x=%d cost=%d w=%d",
				fn.ir.Name, pc, o.code, o.dst, o.a, o.b, o.c, o.d, o.imm, o.x, o.cost, o.wbits))
		}
	}
	return out
}
