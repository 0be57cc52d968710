package vm

// Violation forensics: the recorded variants of the runtime check handlers.
// When Options.Forensics is on, the VM tracks live allocations under their
// static allocation-site IDs, feeds a flight recorder of recent memory
// events, and attaches a structured telemetry.ViolationReport to every
// ViolationError. The recorded operations reproduce the plain handlers'
// statistics, costs and violation texts exactly, so verdicts and Stats are
// bit-identical with forensics on or off — only the diagnostics differ.
//
// Both engines share everything here: the tree interpreter registers the
// recorded handlers (registerForensicsHandlers), the bytecode engine calls
// the same *Rec methods from its recorded opcodes. Event order and the
// engine-neutral "pc" (Stats.Instrs at record time) therefore agree across
// engines, which the differential report-equality tests assert.

import (
	"repro/internal/ir"
	"repro/internal/lowfat"
	"repro/internal/rt"
	"repro/internal/softbound"
	"repro/internal/telemetry"
)

// allocRec is the runtime record of one live allocation.
type allocRec struct {
	site int32
	size uint64
}

// ForensicsEnabled reports whether the VM records forensics (engines use it
// to decide between plain and recorded code paths).
func (v *VM) ForensicsEnabled() bool { return v.allocs != nil }

// Flight returns the flight recorder (nil unless forensics is on).
func (v *VM) Flight() *telemetry.Flight { return v.flight }

// bumpSiteID attributes one execution to the given site ID. Nil-safe on
// every axis, so recorded operations call it unconditionally: profiling and
// forensics compose without dedicated Prof+Rec twins.
func (v *VM) bumpSiteID(id int32, wide bool, cost uint64) {
	if v.siteProf == nil || id <= 0 || int(id) >= len(v.siteProf) {
		return
	}
	sc := &v.siteProf[id]
	sc.Execs++
	sc.Cost += cost
	if wide {
		sc.Wide++
	}
}

// TrackAlloc records a new allocation (stack, heap or low-fat) under its
// allocation site. No-op when forensics is off.
func (v *VM) TrackAlloc(addr, size uint64, site int32) {
	if v.allocs == nil {
		return
	}
	v.allocs[addr] = allocRec{site: site, size: size}
	v.flight.Record(telemetry.Event{
		Instr: v.Stats.Instrs, Kind: telemetry.EvAlloc, Site: site, Addr: addr, Size: size,
	})
}

// TrackFree records a heap free. No-op when forensics is off.
func (v *VM) TrackFree(addr uint64) {
	if v.allocs == nil {
		return
	}
	delete(v.allocs, addr)
	v.flight.Record(telemetry.Event{Instr: v.Stats.Instrs, Kind: telemetry.EvFree, Addr: addr})
}

// recordCheck logs a passed check into the flight recorder.
func (v *VM) recordCheck(site int32, ptr uint64) {
	v.flight.Record(telemetry.Event{Instr: v.Stats.Instrs, Kind: telemetry.EvCheck, Site: site, Addr: ptr})
}

// findAlloc resolves the allocation a faulting pointer belongs to: first the
// check's witness base (exact for SoftBound and in-slot Low-Fat pointers),
// then — for Low-Fat out-of-bounds pointers whose witness base is wide or
// stale — the nearest region slot decoded from the pointer value itself.
func (v *VM) findAlloc(base, ptr uint64) (uint64, allocRec, bool) {
	if base != 0 {
		if rec, ok := v.allocs[base]; ok {
			return base, rec, true
		}
	}
	if lfb := lowfat.Base(ptr); lfb != 0 {
		if rec, ok := v.allocs[lfb]; ok {
			return lfb, rec, true
		}
	}
	return 0, allocRec{}, false
}

// violation attaches the report to viol (when forensics is on) and returns
// it.
func (v *VM) violation(viol *ViolationError, site int32, width, base, bound uint64) *ViolationError {
	v.attachReport(viol, site, width, base, bound)
	return viol
}

// attachReport synthesizes the structured report for a violation. All inputs
// are shared VM state, so the report is deterministic and engine-neutral.
func (v *VM) attachReport(viol *ViolationError, site int32, width, base, bound uint64) {
	if v.allocs == nil {
		return
	}
	rep := &telemetry.ViolationReport{
		Mechanism: viol.Mechanism,
		Kind:      viol.Kind,
		Ptr:       viol.Ptr,
		Detail:    viol.Detail,
		Access: telemetry.AccessInfo{
			Site: site, Width: int(width), Base: base, Bound: bound,
		},
		Events: v.flight.Events(),
	}
	if total := v.flight.Total(); total > uint64(len(rep.Events)) {
		rep.EventsDropped = total - uint64(len(rep.Events))
	}
	if s := v.opts.Sites.Get(site); s != nil {
		rep.Access.Kind = s.Kind
		rep.Access.Func = s.Func
		rep.Access.Loc = s.Loc.String()
		if rep.Access.Width == 0 {
			rep.Access.Width = s.Width
		}
	}
	if addr, rec, ok := v.findAlloc(base, viol.Ptr); ok {
		ai := &telemetry.AllocInfo{Site: rec.site, Base: addr, Size: rec.size}
		if s := v.opts.AllocSites.Get(rec.site); s != nil {
			ai.Kind, ai.Func, ai.Sym, ai.Loc = s.Kind, s.Func, s.Sym, s.Loc.String()
		}
		if lowfat.IsLowFat(addr) {
			ai.Slot = lowfat.AllocSize(lowfat.RegionIndex(addr))
		}
		switch {
		case viol.Ptr < addr:
			ai.Distance = -int64(addr - viol.Ptr)
		case viol.Ptr >= addr+rec.size:
			ai.Distance = int64(viol.Ptr-(addr+rec.size)) + 1
		}
		rep.Alloc = ai
	}
	if viol.Mechanism == "softbound" && v.Shadow != nil {
		rep.ShadowDepth = v.Shadow.Depth()
	}
	if viol.Mechanism == "lowfat" && v.LF != nil {
		for _, r := range v.LF.Snapshot() {
			rep.Regions = append(rep.Regions, telemetry.RegionState{
				Index: r.Index, SlotSize: r.SlotSize, Next: r.Next,
				StackNext: r.StackNext, FreeSlots: r.FreeSlots,
			})
		}
	}
	viol.Report = rep
}

// --- Recorded runtime operations (shared by both engines) ---

// SBCheckRec is the recorded SoftBound dereference check.
func (v *VM) SBCheckRec(site int32, ptr, width, base, bound uint64) error {
	v.Stats.Checks++
	v.Stats.Cost += v.cost.SBCheck
	b := softbound.Bounds{Base: base, Bound: bound}
	v.bumpSiteID(site, b.IsWide(), v.cost.SBCheck)
	if b.IsWide() {
		v.Stats.WideChecks++
		v.recordCheck(site, ptr)
		return nil
	}
	if !b.Check(ptr, width) {
		return v.violation(SBDerefViolation(ptr, width, base, bound), site, width, base, bound)
	}
	v.recordCheck(site, ptr)
	return nil
}

// LFCheckRec is the recorded Low-Fat dereference check.
func (v *VM) LFCheckRec(site int32, ptr, width, base uint64) error {
	v.Stats.Checks++
	v.Stats.Cost += v.cost.LFCheck
	ok, wide := lowfat.Check(ptr, width, base)
	v.bumpSiteID(site, wide, v.cost.LFCheck)
	if wide {
		v.Stats.WideChecks++
		v.recordCheck(site, ptr)
		return nil
	}
	if !ok {
		return v.violation(LFDerefViolation(ptr, width, base), site, width, base, 0)
	}
	v.recordCheck(site, ptr)
	return nil
}

// LFCheckInvRec is the recorded Low-Fat escape (invariant) check.
func (v *VM) LFCheckInvRec(site int32, ptr, base uint64) error {
	v.Stats.InvariantChecks++
	v.Stats.Cost += v.cost.LFCheck
	v.bumpSiteID(site, false, v.cost.LFCheck)
	ok, wide := lowfat.Check(ptr, 1, base)
	if wide {
		v.recordCheck(site, ptr)
		return nil
	}
	if !ok {
		return v.violation(LFInvariantViolation(ptr, base), site, 0, base, 0)
	}
	v.recordCheck(site, ptr)
	return nil
}

// SBStoreMDRec is the recorded SoftBound metadata store.
func (v *VM) SBStoreMDRec(site int32, addr, base, bound uint64) {
	v.Stats.MetaStores++
	v.Stats.Cost += v.cost.SBMetaStore
	v.bumpSiteID(site, false, v.cost.SBMetaStore)
	v.Trie.Store(addr, softbound.Bounds{Base: base, Bound: bound})
	v.flight.Record(telemetry.Event{
		Instr: v.Stats.Instrs, Kind: telemetry.EvMetaStore, Site: site, Addr: addr,
	})
}

// SBCheckRangeRec is the recorded hoisted SoftBound range check.
func (v *VM) SBCheckRangeRec(site int32, lo, hi, width, base, bound, nonempty uint64) error {
	wide, err := SBCheckRangeOp(&v.Stats, v.cost, lo, hi, width, base, bound, nonempty)
	v.bumpSiteID(site, wide, v.cost.SBCheck)
	if err != nil {
		if viol, ok := err.(*ViolationError); ok {
			v.attachReport(viol, site, width, base, bound)
		}
		return err
	}
	v.recordCheck(site, lo)
	return nil
}

// LFCheckRangeRec is the recorded hoisted Low-Fat range check.
func (v *VM) LFCheckRangeRec(site int32, lo, hi, width, base, nonempty uint64) error {
	wide, err := LFCheckRangeOp(&v.Stats, v.cost, lo, hi, width, base, nonempty)
	v.bumpSiteID(site, wide, v.cost.LFCheck)
	if err != nil {
		if viol, ok := err.(*ViolationError); ok {
			v.attachReport(viol, site, width, base, 0)
		}
		return err
	}
	v.recordCheck(site, lo)
	return nil
}

// siteOf extracts the check-site ID of a runtime call (nil-tolerant:
// top-level external invocations pass a nil instruction).
func siteOf(call *ir.Instr) int32 {
	if call == nil {
		return 0
	}
	return call.Site
}

// registerForensicsHandlers overrides the site-bearing runtime intrinsics
// with their recorded variants. Called after registerMIRuntime when
// Options.Forensics is set, so the plain handlers — the disabled path — stay
// byte-for-byte untouched.
func registerForensicsHandlers(v *VM) {
	v.RegisterExternal(rt.SBStoreMD, func(vm *VM, call *ir.Instr, args []uint64) (uint64, error) {
		vm.SBStoreMDRec(siteOf(call), args[0], args[1], args[2])
		return 0, nil
	})
	v.RegisterExternal(rt.SBCheck, func(vm *VM, call *ir.Instr, args []uint64) (uint64, error) {
		return 0, vm.SBCheckRec(siteOf(call), args[0], args[1], args[2], args[3])
	})
	v.RegisterExternal(rt.SBCheckRange, func(vm *VM, call *ir.Instr, args []uint64) (uint64, error) {
		return 0, vm.SBCheckRangeRec(siteOf(call), args[0], args[1], args[2], args[3], args[4], args[5])
	})
	v.RegisterExternal(rt.LFCheck, func(vm *VM, call *ir.Instr, args []uint64) (uint64, error) {
		return 0, vm.LFCheckRec(siteOf(call), args[0], args[1], args[2])
	})
	v.RegisterExternal(rt.LFCheckInv, func(vm *VM, call *ir.Instr, args []uint64) (uint64, error) {
		return 0, vm.LFCheckInvRec(siteOf(call), args[0], args[1])
	})
	v.RegisterExternal(rt.LFCheckRange, func(vm *VM, call *ir.Instr, args []uint64) (uint64, error) {
		return 0, vm.LFCheckRangeRec(siteOf(call), args[0], args[1], args[2], args[3], args[4])
	})
}
