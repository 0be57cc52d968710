package opt

import (
	"repro/internal/ir"
	"repro/internal/telemetry"
)

// ExtPoint names a compiler-pipeline extension point at which the
// instrumentation hook runs (Figure 8 of the paper; the artifact selects
// them in RegisterPasses.cpp).
type ExtPoint int

// The three extension points evaluated in Section 5.5.
const (
	// EPModuleOptimizerEarly instruments before the main optimizations.
	EPModuleOptimizerEarly ExtPoint = iota
	// EPScalarOptimizerLate instruments after the scalar optimizations.
	EPScalarOptimizerLate
	// EPVectorizerStart instruments just before vectorization (the last
	// point before codegen; the configuration used for Figures 9-11).
	EPVectorizerStart
)

// String returns the extension-point name as used in the artifact.
func (ep ExtPoint) String() string {
	switch ep {
	case EPModuleOptimizerEarly:
		return "ModuleOptimizerEarly"
	case EPScalarOptimizerLate:
		return "ScalarOptimizerLate"
	case EPVectorizerStart:
		return "VectorizerStart"
	}
	return "?"
}

// PipelineOptions configure the optimization pipeline.
type PipelineOptions struct {
	// Level 0 disables all optimizations (the hook still runs); levels
	// 1..3 run the full pipeline (the distinction mirrors -O0 vs -O3; the
	// pipeline does not further differentiate 1..3).
	Level int
	// ObfuscatePtrStores enables the PtrObfuscate pass in the late scalar
	// phase, reproducing the LLVM 12 behaviour of Figure 7.
	ObfuscatePtrStores bool
	// Stats, when non-nil, receives pipeline statistics.
	Stats *PipelineStats
	// Trace, when non-nil, records one span per pipeline stage (wall time,
	// instruction and check counts before/after) on track TraceTID. Counting
	// walks the module only while tracing, so disabled runs pay nothing.
	Trace *telemetry.Trace
	// TraceTID is the trace track the spans are recorded on (see
	// telemetry.Trace.Track).
	TraceTID int
}

// PipelineStats reports what the pipeline did.
type PipelineStats struct {
	// ChecksRemovedByCompiler counts instrumentation checks deleted by the
	// compiler's own redundancy elimination (CheckCSE), as opposed to the
	// framework's dominance filter.
	ChecksRemovedByCompiler int
}

// RunPipeline optimizes the module, invoking hook (if non-nil) at the given
// extension point. The stages mirror the paper's setup (LLVM 12 legacy pass
// manager, Figure 8):
//
//	per-function early simplification (SROA/mem2reg, early folding) —
//	    LLVM runs this function pass manager before any module pass, so
//	    even EP_ModuleOptimizerEarly sees promoted scalars
//	[EP ModuleOptimizerEarly]
//	module optimizations: folding, CSE, store-to-load forwarding, LICM
//	[EP ScalarOptimizerLate]
//	late scalar optimizations (optionally incl. pointer-store obfuscation)
//	[EP VectorizerStart]
//	(vectorization - not modelled) and link-time cleanup: folding, CSE,
//	check-redundancy elimination, DCE, simplifycfg
//
// Instrumentation inserted at an early point is optimized by everything
// after it; checks survive (they have side effects), but they also block
// store-to-load forwarding and access CSE around them (a call that may
// abort kills the tracked memory state), which is what makes early
// instrumentation slow (Section 5.5).
//
// RunPipeline is RunPrefix followed by RunSuffix, split at PrefixEnd.
func RunPipeline(m *ir.Module, ep ExtPoint, hook func(*ir.Module), o PipelineOptions) {
	ep = PrefixEnd(ep, hook)
	RunPrefix(m, ep, o)
	RunSuffix(m, ep, hook, o)
}

// PrefixEnd returns the extension point at which RunPipeline(m, ep, hook, o)
// splits into a prefix and a suffix: ep itself when there is a hook, and
// EPVectorizerStart, the last point before link-time cleanup, when there is
// none. The prefix does not depend on the hook, so every configuration with
// the same split point (and options) can share one run of it.
func PrefixEnd(ep ExtPoint, hook func(*ir.Module)) ExtPoint {
	if hook == nil {
		return EPVectorizerStart
	}
	return ep
}

// RunPrefix runs the pipeline stages that precede extension point ep.
func RunPrefix(m *ir.Module, ep ExtPoint, o PipelineOptions) {
	runStages(m, stages[:ep+1], o)
}

// RunSuffix runs hook (if non-nil) at extension point ep, then the stages
// that follow it. Only the suffix writes o.Stats.
func RunSuffix(m *ir.Module, ep ExtPoint, hook func(*ir.Module), o PipelineOptions) {
	if hook != nil {
		traceStage(m, o, "hook:"+ep.String(), func() func(*telemetry.Span) { hook(m); return nil })
	}
	runStages(m, stages[ep+1:], o)
}

// stage is one pipeline stage. run may return a function that attaches
// stage-specific arguments to the stage's trace span.
type stage struct {
	name string
	run  func(m *ir.Module, o PipelineOptions) func(*telemetry.Span)
}

// stages lists the pipeline in order; the extension point ep sits between
// stages[ep] and stages[ep+1].
var stages = [...]stage{
	// Function-level early simplification (SROA/EarlyCSE analog).
	{"early-simplify", func(m *ir.Module, _ PipelineOptions) func(*telemetry.Span) {
		RunSequence(m, SimplifyCFG{}, Mem2Reg{}, ConstFold{}, DCE{})
		return nil
	}},
	// Module optimizations: the inliner runs first (as in LLVM's module
	// pass manager), then scalar cleanup over the flattened code.
	{"module-opt", func(m *ir.Module, _ PipelineOptions) func(*telemetry.Span) {
		inl := &Inline{}
		inl.RunModule(m)
		cse := NewCSE()
		RunSequence(m, Mem2Reg{})
		RunToFixpoint(m, 4, ConstFold{}, cse, LoadElim{}, DCE{}, SimplifyCFG{})
		RunSequence(m, LICM{}, ConstFold{}, cse, LoadElim{}, DCE{})
		// Loop unrolling plus the cleanup that merges the unrolled
		// accesses. An instrumented loop body contains check calls and is
		// not unrolled (Section 5.5).
		RunSequence(m, &Unroll{}, SimplifyCFG{})
		RunToFixpoint(m, 3, ConstFold{}, cse, LoadElim{}, DCE{}, SimplifyCFG{})
		RunSequence(m, LICM{}, ConstFold{}, cse, DCE{})
		return nil
	}},
	{"late-scalar", func(m *ir.Module, o PipelineOptions) func(*telemetry.Span) {
		if o.ObfuscatePtrStores {
			RunSequence(m, &PtrObfuscate{})
		}
		RunToFixpoint(m, 3, ConstFold{}, NewCSE(), LoadElim{}, DCE{})
		RunSequence(m, SimplifyCFG{})
		return nil
	}},
	// Link-time cleanup stage (the paper links with LTO enabled).
	{"link-cleanup", func(m *ir.Module, o PipelineOptions) func(*telemetry.Span) {
		ccse := &CheckCSE{}
		RunToFixpoint(m, 3, ConstFold{}, NewCSE(), ccse, DCE{})
		RunSequence(m, SimplifyCFG{})
		if o.Stats != nil {
			o.Stats.ChecksRemovedByCompiler += ccse.Removed
		}
		return func(sp *telemetry.Span) { sp.Arg("checks_removed_by_compiler", ccse.Removed) }
	}},
}

// runStages runs the given stages unless optimizations are off (level 0).
func runStages(m *ir.Module, ss []stage, o PipelineOptions) {
	if o.Level <= 0 {
		return
	}
	for _, s := range ss {
		traceStage(m, o, s.name, func() func(*telemetry.Span) { return s.run(m, o) })
	}
}

// traceStage runs one pipeline step, recording a span with before/after
// module shape when tracing is on. f may return a function that attaches
// step-specific arguments before the span is closed.
func traceStage(m *ir.Module, o PipelineOptions, name string, f func() func(*telemetry.Span)) {
	if !o.Trace.Enabled() {
		f()
		return
	}
	i0, c0 := countInstrsChecks(m)
	sp := o.Trace.Begin(name, o.TraceTID)
	extra := f()
	i1, c1 := countInstrsChecks(m)
	sp.Arg("instrs_before", i0)
	sp.Arg("instrs_after", i1)
	sp.Arg("checks_before", c0)
	sp.Arg("checks_after", c1)
	if extra != nil {
		extra(sp)
	}
	sp.End()
}

// countInstrsChecks sizes the module for trace spans: total instructions and
// placed instrumentation checks (Tag "check" runtime calls).
func countInstrsChecks(m *ir.Module) (instrs, checks int) {
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				instrs++
				if in.Op == ir.OpCall && in.Tag == "check" {
					checks++
				}
			}
		}
	}
	return instrs, checks
}
