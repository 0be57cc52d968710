package bytecode

import (
	"sort"
	"sync"
)

// Per-function tier attribution for the compiler execution tier.
//
// Every instruction a compiler-tier engine retires lands in exactly one
// bucket: native (instructions the generated plugin code retired, excluding
// its gate intervals) or interpreted (the residual: bytecode dispatch, gated
// ops, and everything on engines where native code declined). The engine
// collects the native bucket per function with a delta measurement around
// each native entry — gate intervals subtracted — and merges it here at the
// end of every Run; the residual is computed against the total so the
// dispatch loop pays nothing.

// tierCount is one function's per-engine accumulator.
type tierCount struct {
	native, entries, bails, gates uint64
}

// TierFnStats is one function's process-wide tier attribution.
type TierFnStats struct {
	// Func is the IR function name.
	Func string
	// QuickInstrs/FusedInstrs are always zero: the quickened and fused
	// interpreter tiers they counted no longer exist. They stay because
	// the perfbench module still reads them.
	QuickInstrs uint64
	FusedInstrs uint64
	// NativeInstrs counts instructions the generated native code retired
	// (gate intervals excluded — gated ops and nested calls attribute to
	// the interpreter and the callees respectively).
	NativeInstrs uint64
	// NativeEntries/NativeBails count transitions into native code and
	// bail-outs back to the interpreter (step-limit proximity, interrupt
	// polls); GateOps counts one-op gate round trips.
	NativeEntries uint64
	NativeBails   uint64
	GateOps       uint64
}

var (
	tierMu          sync.Mutex
	tierFnAgg       = map[string]*TierFnStats{}
	tierTotalInstrs uint64
)

// tierMerge folds one engine's per-function counters and its total retired
// instruction count into the process-wide table.
func (e *Engine) tierMerge(total uint64) {
	tierMu.Lock()
	defer tierMu.Unlock()
	tierTotalInstrs += total
	for i := range e.tierFns {
		tc := &e.tierFns[i]
		if tc.native|tc.entries|tc.bails|tc.gates == 0 {
			continue
		}
		name := e.p.fns[i].ir.Name
		row := tierFnAgg[name]
		if row == nil {
			row = &TierFnStats{Func: name}
			tierFnAgg[name] = row
		}
		row.NativeInstrs += tc.native
		row.NativeEntries += tc.entries
		row.NativeBails += tc.bails
		row.GateOps += tc.gates
	}
}

// TierStats returns the process-wide per-function tier attribution (sorted
// by function name) and the total instruction count retired by compiler-tier
// engines. Functions that never entered native code are omitted.
func TierStats() ([]TierFnStats, uint64) {
	tierMu.Lock()
	defer tierMu.Unlock()
	rows := make([]TierFnStats, 0, len(tierFnAgg))
	for _, r := range tierFnAgg {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Func < rows[j].Func })
	return rows, tierTotalInstrs
}
