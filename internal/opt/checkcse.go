package opt

import (
	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/rt"
)

// CheckCSE removes a safety-check call when an identical check (same
// intrinsic, same operands) precedes it within the same extended basic
// block (straight-line code plus single-predecessor chains). Checks are
// idempotent and have no effect other than aborting, so the duplicate can
// never fire if the first one passed — removing it is semantics-preserving
// for the compiler even without knowing what the call does beyond
// purity-modulo-abort.
//
// This models the observation of Duck and Yap cited in Section 5.3: "the
// compiler can optimize away these checks on its own" — LLVM's value
// numbering catches the straight-line duplicates of inlined check code. The
// framework-level dominance optimization (-mi-opt-dominance) is strictly
// stronger (it also crosses join points and loop headers), which is why it
// removes many checks while changing the runtime only a little.
type CheckCSE struct {
	// Removed counts the check calls deleted by the last Run.
	Removed int
}

// Name returns the pass name.
func (*CheckCSE) Name() string { return "checkcse" }

// Run executes the pass.
func (p *CheckCSE) Run(f *ir.Func) bool {
	changed := false
	preds := analysis.Predecessors(f)
	tables := make(map[*ir.Block]map[string]bool, len(f.Blocks))
	var k keyBuf
	for _, b := range analysis.ReversePostOrder(f) {
		var seen map[string]bool
		if ps := preds.Of(b); len(ps) == 1 && tables[ps[0]] != nil {
			// Single-pred extension: inherit the predecessor's checks.
			seen = make(map[string]bool, len(tables[ps[0]]))
			for k := range tables[ps[0]] {
				seen[k] = true
			}
		} else {
			seen = make(map[string]bool)
		}
		for _, in := range append([]*ir.Instr(nil), b.Instrs...) {
			if !k.check(in) {
				continue
			}
			if seen[string(k.b)] {
				b.Remove(in)
				p.Removed++
				changed = true
				continue
			}
			seen[string(k.b)] = true
		}
		tables[b] = seen
	}
	return changed
}

// check builds the key of a safety-check call into k.b and reports whether
// the instruction is one. The key reads "callee" followed by "|operand" per
// argument.
func (k *keyBuf) check(in *ir.Instr) bool {
	if in.Op != ir.OpCall {
		return false
	}
	callee := in.Callee()
	if callee == nil {
		return false
	}
	switch callee.Name {
	case rt.SBCheck, rt.LFCheck, rt.LFCheckInv:
	default:
		return false
	}
	b := append(k.b[:0], callee.Name...)
	for _, op := range in.Args() {
		b = appendValue(append(b, '|'), op)
	}
	k.b = b
	return true
}
