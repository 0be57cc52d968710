package bytecode

import (
	"errors"
	"testing"

	"repro/internal/cc"
	"repro/internal/ir"
	"repro/internal/vm"
)

// TestGateTablesAgree holds the three places that list the gate-class ops to
// one set: the native generator's op class (natClass), its gate register
// contract (natGateIO) and the shared implementation the dispatch loop and
// the native gate both call (Engine.gate). An op in one list but not another
// would either never reach native code or reach a gate that cannot run it.
func TestGateTablesAgree(t *testing.T) {
	m, err := cc.Compile("gatetables", cc.Source{Name: "gatetables.c", Code: "int main(void) { return 0; }\n"})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	machine, err := vm.New(m, vm.Options{Mechanism: vm.MechSoftBound})
	if err != nil {
		t.Fatalf("vm.New: %v", err)
	}
	e, err := NewEngine(compileTier(m, machine.CostModel(), false, false, EngineBytecode), machine)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	// One synthetic function whose side tables let every gate op run on
	// all-zero registers: a call to main, a call to a missing external (it
	// fails, but in its own case) and a one-index dynamic GEP.
	fn := &Fn{
		ir:       e.p.main.ir,
		ops:      make([]op, 1),
		intCalls: []intCall{{fn: e.p.main}},
		extCalls: []extCall{{name: "no_such_external"}},
		gepDyns:  []gepDynPlan{{srcTy: ir.I64, idx: []dynIdx{{reg: 1}}}},
	}
	var fallback []uint64
	e.fb = &fallback
	e.frames = append(e.frames, engFrame{fn: fn})
	regs := make([]uint64, 4)
	for code := opcode(0); code <= opErrRaw; code++ {
		fn.ops[0] = op{code: code, a: 1, b: 1, c: 1, d: 1}
		class := natClass(code) == natGate
		_, _, io := natGateIO(fn, &fn.ops[0], nil, nil)
		gerr := e.gate(fn, 0, regs)
		ran := !errors.Is(gerr, errNotGate)
		if class != io || class != ran {
			t.Errorf("opcode %d: natClass gate=%t, natGateIO accepts=%t, Engine.gate runs=%t (err %v)", code, class, io, ran, gerr)
		}
		clear(regs)
	}
}
