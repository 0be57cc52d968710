package opt

import (
	"repro/internal/analysis"
	"repro/internal/ir"
)

// Mem2Reg promotes allocas whose address does not escape into SSA values,
// inserting phis at iterated dominance frontiers. It is the single most
// important pass for the extension-point experiment (Section 5.5): when the
// instrumentation runs before mem2reg (ModuleOptimizerEarly), every local
// variable access is a checked memory access and, worse, the check calls
// take the alloca's address, which blocks the promotion entirely.
type Mem2Reg struct{}

// Name returns the pass name.
func (Mem2Reg) Name() string { return "mem2reg" }

// Run executes the pass.
func (Mem2Reg) Run(f *ir.Func) bool {
	if f.Entry() == nil {
		return false
	}
	var promotable []*ir.Instr
	users := ir.ComputeUsers(f)
	f.Instrs(func(in *ir.Instr) bool {
		if in.Op == ir.OpAlloca && isPromotable(in, users) {
			promotable = append(promotable, in)
		}
		return true
	})
	if len(promotable) == 0 {
		return false
	}

	dt := analysis.NewDomTree(f)
	df := dt.DominanceFrontiers()
	bld := ir.NewBuilder(f)

	// phiFor maps inserted phis to the alloca they merge.
	phiFor := make(map[*ir.Instr]*ir.Instr)

	for _, al := range promotable {
		// Blocks containing stores to the alloca, in use order: the work
		// list's order fixes the phis' creation order, and with it their
		// ids and names (the placement itself does not depend on it).
		var work []*ir.Block
		inWork := make(map[*ir.Block]bool)
		for _, u := range users[al] {
			if u.Op == ir.OpStore && !inWork[u.Block] {
				inWork[u.Block] = true
				work = append(work, u.Block)
			}
		}
		// Iterated dominance frontier.
		placed := make(map[*ir.Block]bool)
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			for _, fb := range df[b] {
				if placed[fb] {
					continue
				}
				placed[fb] = true
				bld.SetBlock(fb)
				phi := bld.Phi(al.AllocTy)
				phiFor[phi] = al
				if !inWork[fb] {
					inWork[fb] = true
					work = append(work, fb)
				}
			}
		}
	}

	// Renaming walk over the dominator tree.
	cur := make(map[*ir.Instr]ir.Value) // alloca -> current value
	isProm := make(map[*ir.Instr]bool, len(promotable))
	for _, al := range promotable {
		isProm[al] = true
	}

	type saved struct {
		al   *ir.Instr
		prev ir.Value
		had  bool
	}

	var rename func(b *ir.Block)
	rename = func(b *ir.Block) {
		var undo []saved
		set := func(al *ir.Instr, v ir.Value) {
			prev, had := cur[al]
			undo = append(undo, saved{al, prev, had})
			cur[al] = v
		}

		for _, in := range append([]*ir.Instr(nil), b.Instrs...) {
			switch in.Op {
			case ir.OpPhi:
				if al, ok := phiFor[in]; ok {
					set(al, in)
				}
			case ir.OpStore:
				if al, ok := in.Operands[1].(*ir.Instr); ok && isProm[al] {
					set(al, in.Operands[0])
					b.Remove(in)
				}
			case ir.OpLoad:
				if al, ok := in.Operands[0].(*ir.Instr); ok && isProm[al] {
					v, have := cur[al]
					if !have {
						v = ir.NewUndef(al.AllocTy)
					}
					ir.ReplaceAllUses(f, in, v)
					b.Remove(in)
				}
			}
		}

		// Fill phi operands of successors.
		for _, s := range b.Succs() {
			for _, phi := range s.Phis() {
				al, ok := phiFor[phi]
				if !ok {
					continue
				}
				if phi.PhiIncomingFor(b) != nil {
					continue
				}
				v, have := cur[al]
				if !have {
					v = ir.NewUndef(al.AllocTy)
				}
				phi.AddPhiIncoming(v, b)
			}
		}

		for _, c := range dt.Children(b) {
			rename(c)
		}
		for i := len(undo) - 1; i >= 0; i-- {
			u := undo[i]
			if u.had {
				cur[u.al] = u.prev
			} else {
				delete(cur, u.al)
			}
		}
	}
	rename(f.Entry())

	for _, al := range promotable {
		al.Block.Remove(al)
	}
	// Phis placed in blocks with duplicate-free preds may still miss edges
	// from unreachable predecessors; those blocks are cleaned by
	// SimplifyCFG. Remove trivially dead phis (no uses) now.
	DCE{}.Run(f)
	return true
}

// isPromotable reports whether an alloca can be promoted: a scalar,
// non-array alloca whose only uses are loads of the full value and stores
// where it is the address (never the stored value, never a gep/cast/call
// operand).
func isPromotable(al *ir.Instr, users ir.Users) bool {
	if len(al.Operands) != 0 {
		return false // array alloca
	}
	switch al.AllocTy.Kind {
	case ir.IntKind, ir.FloatKind, ir.PointerKind:
	default:
		return false
	}
	for _, u := range users[al] {
		switch u.Op {
		case ir.OpLoad:
			// ok
		case ir.OpStore:
			if u.Operands[0] == al {
				return false // address escapes as stored value
			}
		default:
			return false
		}
	}
	return true
}
