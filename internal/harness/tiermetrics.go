package harness

import (
	"repro/internal/bytecode"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// TierTableNow snapshots the process-wide compiler-tier attribution into a
// telemetry.TierTable: the per-function native instruction buckets the
// engine collected, the interpreted residual, the native build
// ledger, and the fallback-reason counts. Returns nil when no compiler-tier
// engine has run (so uninstrumented reports carry no tiers block at all).
func TierTableNow() *telemetry.TierTable {
	rows, total := bytecode.TierStats()
	ns := bytecode.NativeStats()
	if total == 0 && len(rows) == 0 && ns.Builds == 0 && ns.Failures == 0 &&
		ns.FallbackDisabled == 0 && ns.FallbackPolicy == 0 {
		return nil
	}
	t := &telemetry.TierTable{
		TotalInstrs:     total,
		NativeBuilds:    ns.Builds,
		NativeCacheHits: ns.CacheHits,
		NativeFailures:  ns.Failures,
		BuildWallMS:     float64(ns.BuildNS) / 1e6,
		Rows:            make([]telemetry.TierRow, 0, len(rows)),
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, telemetry.TierRow{
			Func:          r.Func,
			NativeInstrs:  r.NativeInstrs,
			NativeEntries: r.NativeEntries,
			NativeBails:   r.NativeBails,
			GateOps:       r.GateOps,
		})
	}
	if native := t.NativeInstrs(); total >= native {
		t.InterpretedInstrs = total - native
	}
	if ns.FallbackBuildError|ns.FallbackPluginLoad|ns.FallbackDisabled|ns.FallbackPolicy != 0 {
		t.Fallbacks = map[string]uint64{
			bytecode.NativeFallbackBuildError: ns.FallbackBuildError,
			bytecode.NativeFallbackPluginLoad: ns.FallbackPluginLoad,
			bytecode.NativeFallbackDisabled:   ns.FallbackDisabled,
			bytecode.NativeFallbackPolicy:     ns.FallbackPolicy,
		}
	}
	return t
}

// PublishNativeBuildSpans emits the native tier's build log onto the trace
// as Perfetto spans, on a dedicated "native tier" track: one span per plugin
// build (`go build` wall time), per promotion (a program binding built native
// code), and per fallback (kind "fallback:<reason>"). Builds that happened
// before the trace started clamp to ts=0; a nil trace or empty log is a
// no-op. Called by mi-bench and mi-serve just before the trace is written.
func PublishNativeBuildSpans(tr *telemetry.Trace) {
	if tr == nil {
		return
	}
	evs := bytecode.NativeBuildLog()
	if len(evs) == 0 {
		return
	}
	tid := tr.Track("native tier")
	for _, ev := range evs {
		args := map[string]any{}
		if ev.Hash != "" {
			args["hash"] = ev.Hash
		}
		if ev.Detail != "" {
			args["detail"] = ev.Detail
		}
		tr.Event("native "+ev.Kind, tid, ev.Start, ev.Dur, args)
	}
}

// PublishEngineTierMetrics refreshes the compiler-tier gauges from the
// bytecode package's cumulative counters. The tier counters are process-wide
// (native plugins are shared across runners), so
// they export as gauges set to the current totals rather than per-runner
// counters. Called whenever a snapshot of the registry is about to be taken:
// by Runner.PerfReport, by mi-bench's final -metrics render, and by the
// server's /metricsz handler. A nil registry is a no-op, preserving obs-off
// neutrality.
func PublishEngineTierMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	ns := bytecode.NativeStats()
	reg.Gauge("mi_native_builds",
		"Native plugins built by the compiler tier (process-wide total).").Set(int64(ns.Builds))
	reg.Gauge("mi_native_cache_hits",
		"Native plugins served from the content-addressed build cache (process-wide total).").Set(int64(ns.CacheHits))
	reg.Gauge("mi_native_failures",
		"Native-tier generation/build/load failures that fell back to the bytecode interpreter (process-wide total).").Set(int64(ns.Failures))
	reg.Gauge("mi_native_build_ms",
		"Cumulative wall time spent building native plugins, in milliseconds (process-wide total).").Set(int64(ns.BuildNS / 1e6))

	const fallbackHelp = "Programs that wanted the native tier and fell back to the bytecode interpreter, by reason (process-wide total)."
	for reason, n := range map[string]uint64{
		bytecode.NativeFallbackBuildError: ns.FallbackBuildError,
		bytecode.NativeFallbackPluginLoad: ns.FallbackPluginLoad,
		bytecode.NativeFallbackDisabled:   ns.FallbackDisabled,
		bytecode.NativeFallbackPolicy:     ns.FallbackPolicy,
	} {
		reg.Gauge("mi_native_fallbacks", fallbackHelp, obs.L("reason", reason)).Set(int64(n))
	}

	rows, total := bytecode.TierStats()
	var native, entries, bails, gates uint64
	for _, r := range rows {
		native += r.NativeInstrs
		entries += r.NativeEntries
		bails += r.NativeBails
		gates += r.GateOps
	}
	var interp uint64
	if total >= native {
		interp = total - native
	}
	const tierHelp = "Instructions retired by compiler-tier engines, by execution tier (process-wide total)."
	reg.Gauge("mi_tier_instrs", tierHelp, obs.L("tier", "native")).Set(int64(native))
	reg.Gauge("mi_tier_instrs", tierHelp, obs.L("tier", "interpreted")).Set(int64(interp))
	reg.Gauge("mi_tier_total_instrs",
		"Total instructions retired by compiler-tier engines (process-wide total).").Set(int64(total))
	reg.Gauge("mi_native_entries",
		"Transitions into generated native code (process-wide total).").Set(int64(entries))
	reg.Gauge("mi_native_bails",
		"Bail-outs from native code back to the interpreter (process-wide total).").Set(int64(bails))
	reg.Gauge("mi_native_gate_ops",
		"One-op gate round trips from native code to the interpreter (process-wide total).").Set(int64(gates))
}
