package opt

import "repro/internal/ir"

// LoadElim performs block-local store-to-load forwarding and redundant-load
// elimination. It is deliberately conservative: any store through a pointer
// other than the tracked one, and any call that may write memory,
// invalidates all tracked values (no alias analysis).
//
// This pass is part of what makes later extension points cheaper to
// instrument: fewer loads reach the instrumentation, so fewer checks are
// placed (Section 5.5).
type LoadElim struct{}

// Name returns the pass name.
func (LoadElim) Name() string { return "loadelim" }

// Run executes the pass.
func (LoadElim) Run(f *ir.Func) bool {
	changed := false
	rw := ir.NewReplacer(f)
	type slot struct {
		val ir.Value
		ty  *ir.Type
	}
	avail := make(map[ir.Value]slot) // pointer value -> known content
	for _, b := range f.Blocks {
		clear(avail)
		kept := b.Instrs[:0]
		for _, in := range b.Instrs {
			rw.ResolveOperands(in)
			switch in.Op {
			case ir.OpLoad:
				ptr := in.Operands[0]
				if s, ok := avail[ptr]; ok && s.ty.Equal(in.Ty) {
					rw.Replace(in, s.val)
					in.Block = nil
					changed = true
					continue
				}
				avail[ptr] = slot{val: in, ty: in.Ty}
			case ir.OpStore:
				ptr := in.Operands[1]
				v := in.Operands[0]
				// Drop entries the store may alias. Two distinct globals
				// (or distinct constant-index geps of distinct globals)
				// cannot alias; everything else is dropped conservatively.
				for k := range avail {
					if k != ptr && mayAlias(&rw, k, ptr) {
						delete(avail, k)
					}
				}
				avail[ptr] = slot{val: v, ty: v.Type()}
			case ir.OpCall:
				callee := in.Callee()
				if callee == nil || !callee.Pure {
					clear(avail)
				}
			}
			kept = append(kept, in)
		}
		b.Truncate(len(kept))
	}
	rw.Apply()
	return changed
}

// rootObject returns the distinct allocated object a pointer value is
// statically known to point into, or nil. It reads operands through the
// pass's pending replacements.
func rootObject(rw *ir.Replacer, v ir.Value) ir.Value {
	for {
		switch x := rw.Resolve(v).(type) {
		case *ir.Global:
			return x
		case *ir.Instr:
			switch x.Op {
			case ir.OpGEP, ir.OpBitcast:
				v = x.Operands[0]
				continue
			case ir.OpAlloca:
				return x
			}
			return nil
		default:
			return nil
		}
	}
}

// mayAlias reports whether two pointer values may address overlapping
// memory. It only disambiguates pointers rooted in distinct globals or
// allocas; everything else may alias.
func mayAlias(rw *ir.Replacer, a, b ir.Value) bool {
	ra, rb := rootObject(rw, a), rootObject(rw, b)
	if ra == nil || rb == nil {
		return true
	}
	return ra == rb
}
