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
	// Scalar allocas are the candidates; only their users are collected.
	var cands []*ir.Instr
	f.Instrs(func(in *ir.Instr) bool {
		if in.Op == ir.OpAlloca && promotableType(in) {
			cands = append(cands, in)
		}
		return true
	})
	if len(cands) == 0 {
		return false
	}
	idx := newAllocaIndex(f, cands)
	users := make([][]*ir.Instr, len(cands))
	f.Instrs(func(in *ir.Instr) bool {
		for _, op := range in.Operands {
			if i := idx.of(op); i >= 0 {
				users[i] = append(users[i], in)
			}
		}
		return true
	})
	var promotable []*ir.Instr
	var promUsers [][]*ir.Instr
	for i, al := range cands {
		if isPromotable(al, users[i]) {
			promotable = append(promotable, al)
			promUsers = append(promUsers, users[i])
		}
	}
	if len(promotable) == 0 {
		return false
	}
	idx = newAllocaIndex(f, promotable)

	dt := analysis.NewDomTree(f)
	df := dt.DominanceFrontiers()
	bld := ir.NewBuilder(f)

	// phiFor maps inserted phis to the index of the alloca they merge.
	phiFor := make(map[*ir.Instr]int)

	// inWork and placed mark blocks, by block ID, with 1 + the index of the
	// alloca being placed.
	inWork := make([]int32, f.MaxID())
	placed := make([]int32, f.MaxID())
	for ai, al := range promotable {
		mark := int32(ai + 1)
		// Blocks containing stores to the alloca, in use order: the work
		// list's order fixes the phis' creation order, and with it their
		// ids and names (the placement itself does not depend on it).
		var work []*ir.Block
		for _, u := range promUsers[ai] {
			if u.Op == ir.OpStore && inWork[u.Block.ID()] != mark {
				inWork[u.Block.ID()] = mark
				work = append(work, u.Block)
			}
		}
		// Iterated dominance frontier.
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			for _, fb := range df.Of(b) {
				if placed[fb.ID()] == mark {
					continue
				}
				placed[fb.ID()] = mark
				bld.SetBlock(fb)
				phi := bld.Phi(al.AllocTy)
				phiFor[phi] = ai
				if inWork[fb.ID()] != mark {
					inWork[fb.ID()] = mark
					work = append(work, fb)
				}
			}
		}
	}

	// Renaming walk over the dominator tree. cur holds each alloca's
	// current value (nil: none yet); loads are replaced through rw.
	cur := make([]ir.Value, len(promotable))
	rw := ir.NewReplacer(f)
	curOrUndef := func(ai int) ir.Value {
		if v := cur[ai]; v != nil {
			return v
		}
		return ir.NewUndef(promotable[ai].AllocTy)
	}

	type saved struct {
		ai   int
		prev ir.Value
	}

	var rename func(b *ir.Block)
	rename = func(b *ir.Block) {
		var undo []saved
		set := func(ai int, v ir.Value) {
			undo = append(undo, saved{ai, cur[ai]})
			cur[ai] = v
		}

		kept := b.Instrs[:0]
		for _, in := range b.Instrs {
			rw.ResolveOperands(in)
			switch in.Op {
			case ir.OpPhi:
				if ai, ok := phiFor[in]; ok {
					set(ai, in)
				}
			case ir.OpStore:
				if ai := idx.of(in.Operands[1]); ai >= 0 {
					set(ai, in.Operands[0])
					in.Block = nil
					continue
				}
			case ir.OpLoad:
				if ai := idx.of(in.Operands[0]); ai >= 0 {
					rw.Replace(in, curOrUndef(ai))
					in.Block = nil
					continue
				}
			}
			kept = append(kept, in)
		}
		b.Truncate(len(kept))

		// Fill phi operands of successors.
		for _, s := range b.Succs() {
			for _, phi := range s.Instrs {
				if phi.Op != ir.OpPhi {
					break
				}
				ai, ok := phiFor[phi]
				if !ok {
					continue
				}
				if phi.PhiIncomingFor(b) != nil {
					continue
				}
				phi.AddPhiIncoming(curOrUndef(ai), b)
			}
		}

		for _, c := range dt.Children(b) {
			rename(c)
		}
		for i := len(undo) - 1; i >= 0; i-- {
			cur[undo[i].ai] = undo[i].prev
		}
	}
	rename(f.Entry())

	for _, al := range promotable {
		b := al.Block
		if b == nil {
			continue
		}
		kept := b.Instrs[:0]
		for _, in := range b.Instrs {
			if idx.of(in) >= 0 {
				in.Block = nil
				continue
			}
			kept = append(kept, in)
		}
		b.Truncate(len(kept))
	}
	rw.Apply()
	// Phis placed in blocks with duplicate-free preds may still miss edges
	// from unreachable predecessors; those blocks are cleaned by
	// SimplifyCFG. Remove trivially dead phis (no uses) now.
	DCE{}.Run(f)
	return true
}

// allocaIndex finds an alloca's position in a list, by instruction ID.
type allocaIndex struct {
	list []*ir.Instr
	slot []int32 // by instruction ID: 1 + position in list, 0 for none
}

func newAllocaIndex(f *ir.Func, list []*ir.Instr) allocaIndex {
	x := allocaIndex{list: list, slot: make([]int32, f.MaxID())}
	for i, al := range list {
		x.slot[al.ID()] = int32(i + 1)
	}
	return x
}

// of returns v's position in the list, or -1.
func (x allocaIndex) of(v ir.Value) int {
	if in, ok := v.(*ir.Instr); ok && in.Op == ir.OpAlloca && in.ID() < len(x.slot) {
		if i := int(x.slot[in.ID()]) - 1; i >= 0 && x.list[i] == in {
			return i
		}
	}
	return -1
}

// promotableType reports whether an alloca's shape allows promotion: a
// single (non-array) integer, float or pointer.
func promotableType(al *ir.Instr) bool {
	if len(al.Operands) != 0 {
		return false // array alloca
	}
	switch al.AllocTy.Kind {
	case ir.IntKind, ir.FloatKind, ir.PointerKind:
		return true
	}
	return false
}

// isPromotable reports whether an alloca of promotable type, with the given
// users, can be promoted: its only uses are loads of the full value and
// stores where it is the address (never the stored value, never a
// gep/cast/call operand).
func isPromotable(al *ir.Instr, users []*ir.Instr) bool {
	for _, u := range users {
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
