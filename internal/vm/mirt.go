package vm

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/lowfat"
	"repro/internal/rt"
	"repro/internal/softbound"
)

// registerMIRuntime installs the handlers for the instrumentation runtime
// intrinsics of internal/rt. Handlers charge the cost of the instruction
// sequence a real runtime executes (see CostModel) rather than a generic
// call cost.
func registerMIRuntime(v *VM) {
	// --- SoftBound ---
	v.RegisterExternal(rt.SBLoadBase, func(vm *VM, _ *ir.Instr, args []uint64) (uint64, error) {
		vm.Stats.MetaLoads++
		vm.Stats.Cost += vm.cost.SBMetaLoad
		b, _ := vm.Trie.Lookup(args[0])
		return b.Base, nil
	})
	v.RegisterExternal(rt.SBLoadBound, func(vm *VM, _ *ir.Instr, args []uint64) (uint64, error) {
		vm.Stats.MetaLoads++
		vm.Stats.Cost += vm.cost.SBMetaLoad
		b, _ := vm.Trie.Lookup(args[0])
		return b.Bound, nil
	})
	v.RegisterExternal(rt.SBStoreMD, func(vm *VM, call *ir.Instr, args []uint64) (uint64, error) {
		vm.Stats.MetaStores++
		vm.Stats.Cost += vm.cost.SBMetaStore
		vm.bumpSite(call, false, vm.cost.SBMetaStore)
		vm.Trie.Store(args[0], softbound.Bounds{Base: args[1], Bound: args[2]})
		return 0, nil
	})
	v.RegisterExternal(rt.SBCheck, func(vm *VM, call *ir.Instr, args []uint64) (uint64, error) {
		ptr, width, base, bound := args[0], args[1], args[2], args[3]
		vm.Stats.Checks++
		vm.Stats.Cost += vm.cost.SBCheck
		b := softbound.Bounds{Base: base, Bound: bound}
		vm.bumpSite(call, b.IsWide(), vm.cost.SBCheck)
		if b.IsWide() {
			vm.Stats.WideChecks++
			return 0, nil
		}
		if !b.Check(ptr, width) {
			return 0, SBDerefViolation(ptr, width, base, bound)
		}
		return 0, nil
	})
	v.RegisterExternal(rt.SBCheckRange, func(vm *VM, call *ir.Instr, args []uint64) (uint64, error) {
		wide, err := SBCheckRangeOp(&vm.Stats, vm.cost, args[0], args[1], args[2], args[3], args[4], args[5])
		vm.bumpSite(call, wide, vm.cost.SBCheck)
		return 0, err
	})
	v.RegisterExternal(rt.SBSSAlloc, func(vm *VM, _ *ir.Instr, args []uint64) (uint64, error) {
		vm.Stats.ShadowOps++
		vm.Stats.Cost += vm.cost.SBShadowOp
		vm.Shadow.AllocateFrame(int(args[0]))
		return 0, nil
	})
	v.RegisterExternal(rt.SBSSSetArg, func(vm *VM, _ *ir.Instr, args []uint64) (uint64, error) {
		vm.Stats.ShadowOps++
		vm.Stats.Cost += vm.cost.SBShadowOp
		vm.Shadow.SetArg(int(args[0]), softbound.Bounds{Base: args[1], Bound: args[2]})
		return 0, nil
	})
	v.RegisterExternal(rt.SBSSArgBase, func(vm *VM, _ *ir.Instr, args []uint64) (uint64, error) {
		vm.Stats.ShadowOps++
		vm.Stats.Cost += vm.cost.SBShadowOp
		return vm.Shadow.Arg(int(args[0])).Base, nil
	})
	v.RegisterExternal(rt.SBSSArgBound, func(vm *VM, _ *ir.Instr, args []uint64) (uint64, error) {
		vm.Stats.ShadowOps++
		vm.Stats.Cost += vm.cost.SBShadowOp
		return vm.Shadow.Arg(int(args[0])).Bound, nil
	})
	v.RegisterExternal(rt.SBSSSetRet, func(vm *VM, _ *ir.Instr, args []uint64) (uint64, error) {
		vm.Stats.ShadowOps++
		vm.Stats.Cost += vm.cost.SBShadowOp
		vm.Shadow.SetRet(softbound.Bounds{Base: args[0], Bound: args[1]})
		return 0, nil
	})
	v.RegisterExternal(rt.SBSSRetBase, func(vm *VM, _ *ir.Instr, args []uint64) (uint64, error) {
		vm.Stats.ShadowOps++
		vm.Stats.Cost += vm.cost.SBShadowOp
		return vm.Shadow.Ret().Base, nil
	})
	v.RegisterExternal(rt.SBSSRetBound, func(vm *VM, _ *ir.Instr, args []uint64) (uint64, error) {
		vm.Stats.ShadowOps++
		vm.Stats.Cost += vm.cost.SBShadowOp
		return vm.Shadow.Ret().Bound, nil
	})
	v.RegisterExternal(rt.SBSSPop, func(vm *VM, _ *ir.Instr, args []uint64) (uint64, error) {
		vm.Stats.ShadowOps++
		vm.Stats.Cost += vm.cost.SBShadowOp
		vm.Shadow.PopFrame()
		return 0, nil
	})

	// --- Low-Fat Pointers ---
	v.RegisterExternal(rt.LFBase, func(vm *VM, _ *ir.Instr, args []uint64) (uint64, error) {
		vm.Stats.Cost += vm.cost.LFBase
		return lowfat.Base(args[0]), nil
	})
	v.RegisterExternal(rt.LFCheck, func(vm *VM, call *ir.Instr, args []uint64) (uint64, error) {
		ptr, width, base := args[0], args[1], args[2]
		vm.Stats.Checks++
		vm.Stats.Cost += vm.cost.LFCheck
		ok, wide := lowfat.Check(ptr, width, base)
		vm.bumpSite(call, wide, vm.cost.LFCheck)
		if wide {
			vm.Stats.WideChecks++
			return 0, nil
		}
		if !ok {
			return 0, LFDerefViolation(ptr, width, base)
		}
		return 0, nil
	})
	v.RegisterExternal(rt.LFCheckInv, func(vm *VM, call *ir.Instr, args []uint64) (uint64, error) {
		ptr, base := args[0], args[1]
		vm.Stats.InvariantChecks++
		vm.Stats.Cost += vm.cost.LFCheck
		vm.bumpSite(call, false, vm.cost.LFCheck)
		ok, wide := lowfat.Check(ptr, 1, base)
		if wide {
			return 0, nil
		}
		if !ok {
			// The escape check fails for out-of-bounds pointers that are
			// merely passed around — the usability problem of Section 4.2:
			// programmers expect out-of-bounds *arithmetic* to be fine as
			// long as the pointer is brought back in bounds before use.
			return 0, LFInvariantViolation(ptr, base)
		}
		return 0, nil
	})
	v.RegisterExternal(rt.LFCheckRange, func(vm *VM, call *ir.Instr, args []uint64) (uint64, error) {
		wide, err := LFCheckRangeOp(&vm.Stats, vm.cost, args[0], args[1], args[2], args[3], args[4])
		vm.bumpSite(call, wide, vm.cost.LFCheck)
		return 0, err
	})
}

// SBDerefViolation is the violation a failed SoftBound dereference check
// raises. Every engine and tier builds it here, so verdict text is
// identical wherever the check ran.
func SBDerefViolation(ptr, width, base, bound uint64) *ViolationError {
	return &ViolationError{Mechanism: "softbound", Kind: "deref", Ptr: ptr,
		Detail: fmt.Sprintf("access of %d bytes outside bounds [%#x, %#x)", width, base, bound)}
}

// LFDerefViolation is the violation a failed Low-Fat dereference check
// raises.
func LFDerefViolation(ptr, width, base uint64) *ViolationError {
	return &ViolationError{Mechanism: "lowfat", Kind: "deref", Ptr: ptr,
		Detail: fmt.Sprintf("access of %d bytes outside object at base %#x (size %d)", width, base, lowfat.AllocSize(lowfat.RegionIndex(base)))}
}

// LFInvariantViolation is the violation a failed Low-Fat escape (invariant)
// check raises.
func LFInvariantViolation(ptr, base uint64) *ViolationError {
	return &ViolationError{Mechanism: "lowfat", Kind: "invariant", Ptr: ptr,
		Detail: fmt.Sprintf("escaping pointer is outside its object at base %#x (size %d)", base, lowfat.AllocSize(lowfat.RegionIndex(base)))}
}

// SBCheckRangeOp implements the hoisted SoftBound range check: the access
// pointers of a counted loop's iterations are linear in its IV, so the two
// endpoint pointers bound them all, and checking both suffices. nonempty is
// the loop's entry condition — a zero-trip loop performs no accesses, so
// its (garbage) endpoints must pass unconditionally. Exported so the
// bytecode engine's fused opcode shares the exact semantics, stats and
// violation text with the tree interpreter.
func SBCheckRangeOp(st *Stats, cm *CostModel, lo, hi, width, base, bound, nonempty uint64) (wide bool, err error) {
	st.RangeChecks++
	st.Cost += cm.SBCheck
	b := softbound.Bounds{Base: base, Bound: bound}
	if b.IsWide() {
		st.WideRangeChecks++
		return true, nil
	}
	if nonempty == 0 {
		return false, nil
	}
	if hi < lo { // downward-counting loop: normalize the endpoints
		lo, hi = hi, lo
	}
	bad := uint64(0)
	switch {
	case !b.Check(lo, width):
		bad = lo
	case !b.Check(hi, width):
		bad = hi
	default:
		return false, nil
	}
	return false, &ViolationError{Mechanism: "softbound", Kind: "deref", Ptr: bad,
		Detail: fmt.Sprintf("range [%#x, %#x] of %d-byte accesses outside bounds [%#x, %#x)", lo, hi, width, base, bound)}
}

// LFCheckRangeOp is the Low-Fat counterpart of SBCheckRangeOp. Wideness
// depends only on the witness base, exactly as in lowfat.Check.
func LFCheckRangeOp(st *Stats, cm *CostModel, lo, hi, width, base, nonempty uint64) (wide bool, err error) {
	st.RangeChecks++
	st.Cost += cm.LFCheck
	size := lowfat.AllocSize(lowfat.RegionIndex(base))
	if size == ^uint64(0) {
		st.WideRangeChecks++
		return true, nil
	}
	if nonempty == 0 {
		return false, nil
	}
	if hi < lo {
		lo, hi = hi, lo
	}
	bad := uint64(0)
	okLo, _ := lowfat.Check(lo, width, base)
	okHi, _ := lowfat.Check(hi, width, base)
	switch {
	case !okLo:
		bad = lo
	case !okHi:
		bad = hi
	default:
		return false, nil
	}
	return false, &ViolationError{Mechanism: "lowfat", Kind: "deref", Ptr: bad,
		Detail: fmt.Sprintf("range [%#x, %#x] of %d-byte accesses outside object at base %#x (size %d)", lo, hi, width, base, size)}
}
