package opt

import "repro/internal/ir"

// DCE removes instructions whose results are unused and that have no side
// effects, including unused allocas and unused calls to pure functions
// (e.g. SoftBound metadata loads). Checks and metadata stores are calls to
// non-pure functions and are never removed.
//
// It counts the uses of every instruction once, by instruction ID, and then
// works off a list of unused removable instructions: removing one releases
// its operands, which join the list when their count drops to zero. The
// removed set is the one that repeated whole-function sweeps reach, since
// removability only grows as uses disappear.
type DCE struct{}

// Name returns the pass name.
func (DCE) Name() string { return "dce" }

// Run executes the pass.
func (DCE) Run(f *ir.Func) bool {
	// at[id] is the live non-terminator with that id; uses[id] counts its
	// operand slots across the function. Live values have distinct ids (the
	// VM's register file relies on it); an instruction that shares its id
	// is simply never removed.
	n := f.MaxID()
	at := make([]*ir.Instr, n)
	uses := make([]int32, n)
	f.Instrs(func(in *ir.Instr) bool {
		if id := in.ID(); id < n && !in.IsTerminator() {
			at[id] = in
		}
		return true
	})
	f.Instrs(func(in *ir.Instr) bool {
		for _, op := range in.Operands {
			if x, ok := op.(*ir.Instr); ok && x.ID() < n && at[x.ID()] == x {
				uses[x.ID()]++
			}
		}
		return true
	})
	var work []*ir.Instr
	f.Instrs(func(in *ir.Instr) bool {
		if id := in.ID(); id < n && at[id] == in && uses[id] == 0 && removable(in) {
			work = append(work, in)
		}
		return true
	})
	if len(work) == 0 {
		return false
	}
	for len(work) > 0 {
		in := work[len(work)-1]
		work = work[:len(work)-1]
		at[in.ID()] = nil
		in.Block = nil
		for _, op := range in.Operands {
			x, ok := op.(*ir.Instr)
			if !ok || x.ID() >= n || at[x.ID()] != x {
				continue
			}
			if uses[x.ID()]--; uses[x.ID()] == 0 && removable(x) {
				work = append(work, x)
			}
		}
	}
	for _, b := range f.Blocks {
		kept := b.Instrs[:0]
		for _, in := range b.Instrs {
			if in.Block == nil {
				continue
			}
			kept = append(kept, in)
		}
		b.Truncate(len(kept))
	}
	return true
}

// removable reports whether an unused instruction may be deleted
// (terminators have side effects).
func removable(in *ir.Instr) bool {
	return in.Op == ir.OpAlloca || !in.HasSideEffects()
}
