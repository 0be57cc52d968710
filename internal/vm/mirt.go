package vm

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/lowfat"
	"repro/internal/rt"
	"repro/internal/softbound"
	"repro/internal/telemetry"
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
		vm.SBStoreMD(siteOf(call), args[0], args[1], args[2])
		return 0, nil
	})
	v.RegisterExternal(rt.SBCheck, func(vm *VM, call *ir.Instr, args []uint64) (uint64, error) {
		return 0, vm.SBCheck(siteOf(call), args[0], args[1], args[2], args[3])
	})
	v.RegisterExternal(rt.SBCheckRange, func(vm *VM, call *ir.Instr, args []uint64) (uint64, error) {
		return 0, vm.SBCheckRange(siteOf(call), args[0], args[1], args[2], args[3], args[4], args[5])
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
		return 0, vm.LFCheck(siteOf(call), args[0], args[1], args[2])
	})
	v.RegisterExternal(rt.LFCheckInv, func(vm *VM, call *ir.Instr, args []uint64) (uint64, error) {
		return 0, vm.LFCheckInv(siteOf(call), args[0], args[1])
	})
	v.RegisterExternal(rt.LFCheckRange, func(vm *VM, call *ir.Instr, args []uint64) (uint64, error) {
		return 0, vm.LFCheckRange(siteOf(call), args[0], args[1], args[2], args[3], args[4])
	})
}

// siteOf extracts the check-site ID of a runtime call (nil-tolerant:
// top-level external invocations pass a nil instruction).
func siteOf(call *ir.Instr) int32 {
	if call == nil {
		return 0
	}
	return call.Site
}

// The site-bearing runtime operations. Each is the one interpreted
// implementation of its intrinsic: the tree interpreter's handlers above and
// the bytecode engine's ops call it with the instruction's SiteID (only the
// native tier's generated code states the checks again). Each charges
// statistics and cost, bumps the site profile (a no-op unless profiling),
// and, when forensics is on, logs a flight-recorder event or attaches a
// violation report (see forensics.go).

// SBStoreMD is the SoftBound metadata store: the pointer stored at addr
// carries bounds [base, bound).
func (v *VM) SBStoreMD(site int32, addr, base, bound uint64) {
	v.Stats.MetaStores++
	v.Stats.Cost += v.cost.SBMetaStore
	v.bumpSite(site, false, v.cost.SBMetaStore)
	v.Trie.Store(addr, softbound.Bounds{Base: base, Bound: bound})
	v.record(telemetry.EvMetaStore, site, addr)
}

// SBCheck is the SoftBound dereference check of a width-byte access at ptr.
// Wide (unknown) bounds pass and are counted.
func (v *VM) SBCheck(site int32, ptr, width, base, bound uint64) error {
	v.Stats.Checks++
	v.Stats.Cost += v.cost.SBCheck
	b := softbound.Bounds{Base: base, Bound: bound}
	wide := b.IsWide()
	v.bumpSite(site, wide, v.cost.SBCheck)
	if wide {
		v.Stats.WideChecks++
	} else if !b.Check(ptr, width) {
		return v.violation(SBDerefViolation(ptr, width, base, bound), site, width, base, bound)
	}
	v.record(telemetry.EvCheck, site, ptr)
	return nil
}

// LFCheck is the Low-Fat dereference check of a width-byte access at ptr
// against the object at base.
func (v *VM) LFCheck(site int32, ptr, width, base uint64) error {
	v.Stats.Checks++
	v.Stats.Cost += v.cost.LFCheck
	ok, wide := lowfat.Check(ptr, width, base)
	v.bumpSite(site, wide, v.cost.LFCheck)
	if wide {
		v.Stats.WideChecks++
	} else if !ok {
		return v.violation(LFDerefViolation(ptr, width, base), site, width, base, 0)
	}
	v.record(telemetry.EvCheck, site, ptr)
	return nil
}

// LFCheckInv is the Low-Fat escape (invariant) check. It fails for
// out-of-bounds pointers that are merely passed around — the usability
// problem of Section 4.2: programmers expect out-of-bounds *arithmetic* to
// be fine as long as the pointer is brought back in bounds before use.
func (v *VM) LFCheckInv(site int32, ptr, base uint64) error {
	v.Stats.InvariantChecks++
	v.Stats.Cost += v.cost.LFCheck
	v.bumpSite(site, false, v.cost.LFCheck)
	if ok, wide := lowfat.Check(ptr, 1, base); !ok && !wide {
		return v.violation(LFInvariantViolation(ptr, base), site, 0, base, 0)
	}
	v.record(telemetry.EvCheck, site, ptr)
	return nil
}

// SBCheckRange is the hoisted SoftBound range check: the access pointers of
// a counted loop's iterations are linear in its IV, so the two endpoint
// pointers bound them all, and checking both suffices. nonempty is the
// loop's entry condition — a zero-trip loop performs no accesses, so its
// (garbage) endpoints must pass unconditionally.
func (v *VM) SBCheckRange(site int32, lo, hi, width, base, bound, nonempty uint64) error {
	v.Stats.RangeChecks++
	v.Stats.Cost += v.cost.SBCheck
	b := softbound.Bounds{Base: base, Bound: bound}
	wide := b.IsWide()
	v.bumpSite(site, wide, v.cost.SBCheck)
	if wide {
		v.Stats.WideRangeChecks++
	} else if nonempty != 0 {
		first, last := min(lo, hi), max(lo, hi) // a downward-counting loop swaps them
		for _, p := range [2]uint64{first, last} {
			if !b.Check(p, width) {
				return v.violation(&ViolationError{Mechanism: "softbound", Kind: "deref", Ptr: p,
					Detail: fmt.Sprintf("range [%#x, %#x] of %d-byte accesses outside bounds [%#x, %#x)", first, last, width, base, bound)},
					site, width, base, bound)
			}
		}
	}
	v.record(telemetry.EvCheck, site, lo)
	return nil
}

// LFCheckRange is the Low-Fat counterpart of SBCheckRange. Wideness
// depends only on the witness base, exactly as in lowfat.Check.
func (v *VM) LFCheckRange(site int32, lo, hi, width, base, nonempty uint64) error {
	v.Stats.RangeChecks++
	v.Stats.Cost += v.cost.LFCheck
	size := lowfat.AllocSize(lowfat.RegionIndex(base))
	wide := size == ^uint64(0)
	v.bumpSite(site, wide, v.cost.LFCheck)
	if wide {
		v.Stats.WideRangeChecks++
	} else if nonempty != 0 {
		first, last := min(lo, hi), max(lo, hi)
		for _, p := range [2]uint64{first, last} {
			if ok, _ := lowfat.Check(p, width, base); !ok {
				return v.violation(&ViolationError{Mechanism: "lowfat", Kind: "deref", Ptr: p,
					Detail: fmt.Sprintf("range [%#x, %#x] of %d-byte accesses outside object at base %#x (size %d)", first, last, width, base, size)},
					site, width, base, 0)
			}
		}
	}
	v.record(telemetry.EvCheck, site, lo)
	return nil
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
