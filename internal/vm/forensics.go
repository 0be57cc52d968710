package vm

// Violation forensics. When Options.Forensics is on, the VM tracks live
// allocations under their static allocation-site IDs, feeds a flight
// recorder of recent memory events, and attaches a structured
// telemetry.ViolationReport to every ViolationError. Recording is a branch
// inside the runtime operations of mirt.go, not a second copy of them: the
// same statistics, costs and violation texts hold with forensics on or off,
// so verdicts and Stats are bit-identical and only the diagnostics differ.
//
// Both engines share everything here: the tree interpreter's handlers and
// the bytecode engine's ops call the same runtime operations. Event order
// and the engine-neutral "pc" (Stats.Instrs at record time) therefore agree
// across engines, which the differential report-equality tests assert.

import (
	"repro/internal/lowfat"
	"repro/internal/telemetry"
)

// allocRec is the runtime record of one live allocation.
type allocRec struct {
	site int32
	size uint64
}

// bumpSite attributes one execution to the given site ID. A no-op when
// profiling is off and for site 0 ("no site"), so the runtime operations
// call it unconditionally.
func (v *VM) bumpSite(id int32, wide bool, cost uint64) {
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

// record logs a check or metadata event into the flight recorder. The nil
// check comes first, so a run without forensics builds no event.
func (v *VM) record(kind telemetry.EventKind, site int32, addr uint64) {
	if v.flight != nil {
		v.flight.Record(telemetry.Event{Instr: v.Stats.Instrs, Kind: kind, Site: site, Addr: addr})
	}
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

// violation attaches the structured report to viol when forensics is on and
// returns it. All inputs are shared VM state, so the report is deterministic
// and engine-neutral.
func (v *VM) violation(viol *ViolationError, site int32, width, base, bound uint64) *ViolationError {
	if v.allocs == nil {
		return viol
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
	return viol
}
