package opt

import (
	"repro/internal/analysis"
	"repro/internal/ir"
)

// LICM hoists loop-invariant pure computations (arithmetic, comparisons,
// casts, geps, selects) into the loop preheader. It never hoists memory
// accesses or calls: an inserted safety check is a call that may abort, so
// instrumented loops keep their checks inside — the mechanism behind the
// slow ModuleOptimizerEarly extension point (Section 5.5).
type LICM struct{}

// Name returns the pass name.
func (LICM) Name() string { return "licm" }

// Run executes the pass.
func (LICM) Run(f *ir.Func) bool {
	if f.Entry() == nil {
		return false
	}
	dt := analysis.NewDomTree(f)
	li := analysis.FindLoops(f, dt)
	changed := false

	for _, loop := range li.Loops {
		pre := preheader(loop)
		if pre == nil {
			continue
		}
		// Loads may be hoisted only out of loops that contain no stores
		// and no calls at all: a call might write the loaded location, and
		// even a non-writing call might abort — moving a potentially
		// faulting load above it changes behaviour. Inserted safety checks
		// are calls, so they pin loads inside the loop; this is the "checks
		// are very effective at preventing optimizations" effect of
		// Section 5.5.
		loadsSafe := loopIsReadOnly(loop)
		// Iterate to a fixpoint within the loop: hoisting one instruction
		// can make its users invariant.
		for {
			hoisted := false
			for _, b := range loop.Body {
				for _, in := range append([]*ir.Instr(nil), b.Instrs...) {
					if in.Op == ir.OpLoad {
						if !loadsSafe || !speculatableAddress(in.Operands[0]) {
							continue
						}
					} else if !hoistable(in) {
						continue
					}
					if !operandsInvariant(in, loop) {
						continue
					}
					b.Remove(in)
					pre.InsertBefore(in, pre.Terminator())
					hoisted = true
					changed = true
				}
			}
			if !hoisted {
				break
			}
		}
	}
	return changed
}

// loopIsReadOnly reports whether the loop contains no stores and no calls.
func loopIsReadOnly(l *analysis.Loop) bool {
	for b := range l.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpStore || in.Op == ir.OpCall {
				return false
			}
		}
	}
	return true
}

// speculatableAddress reports whether loading from v cannot fault when
// executed speculatively in the preheader: any address rooted in a global
// or an alloca (gep/bitcast chains included).
func speculatableAddress(v ir.Value) bool {
	return rootObject(nil, v) != nil
}

// preheader returns the unique predecessor of the loop header outside the
// loop, provided it branches unconditionally to the header.
func preheader(l *analysis.Loop) *ir.Block {
	var pre *ir.Block
	for _, p := range ir.Preds(l.Header) {
		if l.Contains(p) {
			continue
		}
		if pre != nil {
			return nil
		}
		pre = p
	}
	if pre == nil {
		return nil
	}
	if t := pre.Terminator(); t == nil || t.Op != ir.OpBr {
		return nil
	}
	return pre
}

func hoistable(in *ir.Instr) bool {
	switch {
	case in.IsBinaryOp():
		// Division may trap; do not speculate it.
		switch in.Op {
		case ir.OpSDiv, ir.OpUDiv, ir.OpSRem, ir.OpURem:
			return false
		}
		return true
	case in.Op == ir.OpICmp, in.Op == ir.OpFCmp, in.Op == ir.OpGEP, in.Op == ir.OpSelect:
		return true
	case in.IsCast():
		return true
	}
	return false
}

func operandsInvariant(in *ir.Instr, l *analysis.Loop) bool {
	for _, op := range in.Operands {
		if def, ok := op.(*ir.Instr); ok {
			if def.Block != nil && l.Contains(def.Block) {
				return false
			}
		}
	}
	return true
}
