package telemetry

import (
	"fmt"
	"sort"
	"strings"
)

// TierRow is one function's execution-tier attribution under the compiler
// engine: how many instructions its native code retired, and how often it
// crossed the native-tier boundary.
type TierRow struct {
	Func string `json:"func"`
	// NativeInstrs counts instructions retired by the function's generated
	// native code, gate intervals excluded.
	NativeInstrs uint64 `json:"native_instrs,omitempty"`
	// NativeEntries/NativeBails count transitions into native code and
	// bail-outs back to the interpreter; GateOps counts one-op gate round
	// trips (ops the native code defers to the interpreter).
	NativeEntries uint64 `json:"native_entries,omitempty"`
	NativeBails   uint64 `json:"native_bails,omitempty"`
	GateOps       uint64 `json:"gate_ops,omitempty"`
}

// TierTable is the compiler tier's attribution telemetry: where retired
// instructions actually executed (native or interpreted), per function, plus
// the native tier's build accounting and the reasons a program fell back to
// the bytecode interpreter. The counters are
// process-wide and cumulative, so the table is stripped by canonical report
// diffs the same way wall-clock times are.
type TierTable struct {
	// TotalInstrs is the total instruction count retired by compiler-tier
	// engines; InterpretedInstrs is the residual not retired by native code
	// (bytecode dispatch, gated ops, functions without native code).
	TotalInstrs       uint64 `json:"total_instrs"`
	InterpretedInstrs uint64 `json:"interpreted_instrs"`
	// Native plugin build accounting: compilations run, content-addressed
	// cache hits, failed builds/loads, and cumulative go-build wall time.
	NativeBuilds    uint64  `json:"native_builds,omitempty"`
	NativeCacheHits uint64  `json:"native_cache_hits,omitempty"`
	NativeFailures  uint64  `json:"native_failures,omitempty"`
	BuildWallMS     float64 `json:"build_wall_ms,omitempty"`
	// Fallbacks counts, per reason, the programs that wanted the native tier
	// and did not get it: "build_error", "plugin_load", "MI_NATIVE=0",
	// "policy" (forensics recording stays interpreter-only).
	Fallbacks map[string]uint64 `json:"fallbacks,omitempty"`
	// Rows is the per-function attribution, sorted by function name.
	Rows []TierRow `json:"rows,omitempty"`
}

// NativeInstrs sums the instructions retired by native code.
func (t *TierTable) NativeInstrs() (native uint64) {
	for _, r := range t.Rows {
		native += r.NativeInstrs
	}
	return
}

// Render formats the table as text for mi-prof -tiers: an overall tier mix
// line, the native build ledger, fallback reasons, and the per-function rows
// sorted hottest first.
func (t *TierTable) Render() string {
	var sb strings.Builder
	native := t.NativeInstrs()
	fmt.Fprintf(&sb, "Execution tier attribution: %d instrs total\n", t.TotalInstrs)
	fmt.Fprintf(&sb, "  native %d (%.1f%%)  interpreted %d (%.1f%%)\n",
		native, tierPct(native, t.TotalInstrs),
		t.InterpretedInstrs, tierPct(t.InterpretedInstrs, t.TotalInstrs))
	fmt.Fprintf(&sb, "  native plugins: %d built (%.1f ms wall), %d cache hits, %d failures\n",
		t.NativeBuilds, t.BuildWallMS, t.NativeCacheHits, t.NativeFailures)
	if len(t.Fallbacks) > 0 {
		reasons := make([]string, 0, len(t.Fallbacks))
		for r := range t.Fallbacks {
			reasons = append(reasons, r)
		}
		sort.Strings(reasons)
		parts := make([]string, 0, len(reasons))
		for _, r := range reasons {
			if n := t.Fallbacks[r]; n > 0 {
				parts = append(parts, fmt.Sprintf("%s=%d", r, n))
			}
		}
		if len(parts) > 0 {
			fmt.Fprintf(&sb, "  fallbacks: %s\n", strings.Join(parts, "  "))
		}
	}
	if len(t.Rows) == 0 {
		if t.TotalInstrs > 0 {
			sb.WriteString("no function entered native code\n")
		} else {
			sb.WriteString("no tiered execution recorded (engine was not -engine=compiler?)\n")
		}
		return sb.String()
	}
	rows := append([]TierRow(nil), t.Rows...)
	sort.Slice(rows, func(i, j int) bool {
		if a, b := rows[i].NativeInstrs, rows[j].NativeInstrs; a != b {
			return a > b
		}
		return rows[i].Func < rows[j].Func
	})
	fmt.Fprintf(&sb, "  %-20s  %14s  %8s  %6s  %8s\n",
		"func", "native", "entries", "bails", "gates")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-20s  %14d  %8d  %6d  %8d\n",
			r.Func, r.NativeInstrs,
			r.NativeEntries, r.NativeBails, r.GateOps)
	}
	return sb.String()
}

func tierPct(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}
