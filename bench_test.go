// Package repro's root benchmark suite regenerates every table and figure
// of the paper's evaluation as testing.B benchmarks, plus microbenchmarks of
// the runtime substrates.
//
// The figure benchmarks execute one representative benchmark program per
// configuration and report the dynamic-cost overhead vs. the -O3 baseline as
// the custom metric "overhead_x" (wall-clock ns/op measures the simulator,
// not the simulated program; the overhead metric is what corresponds to the
// paper's y-axes). Run everything with:
//
//	go test -bench=. -benchmem
//
// The full 20-benchmark sweeps behind the figures are produced by
// cmd/mi-bench; the benchmarks here keep a single figure-defining
// configuration each so the suite completes in minutes.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/lowfat"
	"repro/internal/mem"
	"repro/internal/opt"
	"repro/internal/softbound"
	"repro/internal/spec"
	"repro/internal/vm"
)

// benchOverhead runs one benchmark under one configuration per b.N
// iteration and reports the overhead metric.
func benchOverhead(b *testing.B, benchName string, cfg harness.RunConfig) {
	sb := spec.ByName(benchName)
	if sb == nil {
		b.Fatalf("unknown benchmark %s", benchName)
	}
	var last float64
	for i := 0; i < b.N; i++ {
		// A fresh runner per iteration: ns/op measures a full
		// compile+instrument+baseline+instrumented-run cycle rather than
		// cache hits.
		r := harness.NewRunner()
		ov, _, err := r.Overhead(sb, cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = ov
	}
	b.ReportMetric(last, "overhead_x")
}

// ----- Figure 9: SoftBound vs Low-Fat Pointers runtime -----

func BenchmarkFig9SoftBound(b *testing.B) {
	benchOverhead(b, "183equake", harness.PaperConfig(core.MechSoftBound))
}

func BenchmarkFig9LowFat(b *testing.B) {
	benchOverhead(b, "183equake", harness.PaperConfig(core.MechLowFat))
}

// ----- Figure 10: SoftBound optimized / unoptimized / metadata-only -----

func fig10Config(mode core.Mode, dom bool) harness.RunConfig {
	cfg := harness.PaperConfig(core.MechSoftBound)
	cfg.Core.Mode = mode
	cfg.Core.OptDominance = dom
	cfg.Label = "fig10"
	return cfg
}

func BenchmarkFig10Optimized(b *testing.B) {
	benchOverhead(b, "197parser", fig10Config(core.ModeFull, true))
}

func BenchmarkFig10Unoptimized(b *testing.B) {
	benchOverhead(b, "197parser", fig10Config(core.ModeFull, false))
}

func BenchmarkFig10MetadataOnly(b *testing.B) {
	benchOverhead(b, "197parser", fig10Config(core.ModeGenInvariants, false))
}

// ----- Figure 11: Low-Fat Pointers optimized / unoptimized / invariants -----

func fig11Config(mode core.Mode, dom bool) harness.RunConfig {
	cfg := harness.PaperConfig(core.MechLowFat)
	cfg.Core.Mode = mode
	cfg.Core.OptDominance = dom
	cfg.Label = "fig11"
	return cfg
}

func BenchmarkFig11Optimized(b *testing.B) {
	benchOverhead(b, "464h264ref", fig11Config(core.ModeFull, true))
}

func BenchmarkFig11Unoptimized(b *testing.B) {
	benchOverhead(b, "464h264ref", fig11Config(core.ModeFull, false))
}

func BenchmarkFig11InvariantsOnly(b *testing.B) {
	benchOverhead(b, "464h264ref", fig11Config(core.ModeGenInvariants, false))
}

// ----- Figures 12 & 13: pipeline extension points -----

func epConfig(mech core.Mech, ep opt.ExtPoint) harness.RunConfig {
	cfg := harness.PaperConfig(mech)
	cfg.EP = ep
	cfg.Label = ep.String()
	return cfg
}

func BenchmarkFig12SoftBoundEarly(b *testing.B) {
	benchOverhead(b, "470lbm", epConfig(core.MechSoftBound, opt.EPModuleOptimizerEarly))
}

func BenchmarkFig12SoftBoundScalarLate(b *testing.B) {
	benchOverhead(b, "470lbm", epConfig(core.MechSoftBound, opt.EPScalarOptimizerLate))
}

func BenchmarkFig12SoftBoundVectorizerStart(b *testing.B) {
	benchOverhead(b, "470lbm", epConfig(core.MechSoftBound, opt.EPVectorizerStart))
}

func BenchmarkFig13LowFatEarly(b *testing.B) {
	benchOverhead(b, "470lbm", epConfig(core.MechLowFat, opt.EPModuleOptimizerEarly))
}

func BenchmarkFig13LowFatVectorizerStart(b *testing.B) {
	benchOverhead(b, "470lbm", epConfig(core.MechLowFat, opt.EPVectorizerStart))
}

// ----- Table 2: unsafe dereference percentages -----

func BenchmarkTable2SizeZeroGzip(b *testing.B) {
	sb := spec.ByName("164gzip")
	var pct float64
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner()
		_, res, err := r.Overhead(sb, harness.PaperConfig(core.MechSoftBound))
		if err != nil {
			b.Fatal(err)
		}
		pct = res.Stats.UnsafePercent()
	}
	b.ReportMetric(pct, "unsafe_%")
}

func BenchmarkTable2OversizeMcf(b *testing.B) {
	sb := spec.ByName("429mcf")
	var pct float64
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner()
		_, res, err := r.Overhead(sb, harness.PaperConfig(core.MechLowFat))
		if err != nil {
			b.Fatal(err)
		}
		pct = res.Stats.UnsafePercent()
	}
	b.ReportMetric(pct, "unsafe_%")
}

// ----- Section 5.3: dominance check elimination -----

func BenchmarkElimDominance(b *testing.B) {
	sb := spec.ByName("256bzip2")
	var rate float64
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner()
		_, res, err := r.Overhead(sb, harness.PaperConfig(core.MechSoftBound))
		if err != nil {
			b.Fatal(err)
		}
		rate = res.InstrStats.EliminationRate()
	}
	b.ReportMetric(rate, "eliminated_%")
}

// ----- Substrate microbenchmarks -----

func BenchmarkLowFatCheck(b *testing.B) {
	base := lowfat.RegionStart(3) + 128
	ok := true
	for i := 0; i < b.N; i++ {
		o, _ := lowfat.Check(base+uint64(i%64), 8, base)
		ok = ok && o
	}
	_ = ok
}

func BenchmarkLowFatBaseRecovery(b *testing.B) {
	ptr := lowfat.RegionStart(7) + 12345
	var s uint64
	for i := 0; i < b.N; i++ {
		s += lowfat.Base(ptr + uint64(i&1023))
	}
	_ = s
}

func BenchmarkSoftBoundCheck(b *testing.B) {
	bounds := softbound.Bounds{Base: 1 << 20, Bound: 1<<20 + 4096}
	ok := true
	for i := 0; i < b.N; i++ {
		ok = ok && bounds.Check(1<<20+uint64(i%4000), 8)
	}
	_ = ok
}

func BenchmarkTrieLookup(b *testing.B) {
	tr := softbound.NewTrie()
	for i := uint64(0); i < 1024; i++ {
		tr.Store(0x5000_0000_0000+i*8, softbound.Bounds{Base: i, Bound: i + 64})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Lookup(0x5000_0000_0000 + uint64(i%1024)*8)
	}
}

func BenchmarkTrieStore(b *testing.B) {
	tr := softbound.NewTrie()
	for i := 0; i < b.N; i++ {
		tr.Store(0x5000_0000_0000+uint64(i%65536)*8, softbound.Bounds{Base: 1, Bound: 2})
	}
}

func BenchmarkShadowStackFrame(b *testing.B) {
	ss := softbound.NewShadowStack(1 << 12)
	bb := softbound.Bounds{Base: 1, Bound: 2}
	for i := 0; i < b.N; i++ {
		ss.AllocateFrame(2)
		ss.SetArg(1, bb)
		ss.SetArg(2, bb)
		ss.SetRet(bb)
		ss.PopFrame()
	}
}

func BenchmarkAddrSpaceLoadStore(b *testing.B) {
	as := mem.NewAddrSpace()
	for i := 0; i < b.N; i++ {
		addr := 0x1000_0000 + uint64(i%(1<<20))
		_ = as.Store(addr, 8, uint64(i))
		_, _ = as.Load(addr, 8)
	}
}

func BenchmarkLowFatAlloc(b *testing.B) {
	std := mem.NewStdAllocator(mem.HeapBase, mem.HeapLimit)
	a := lowfat.NewAllocator(std)
	for i := 0; i < b.N; i++ {
		p, _, err := a.Alloc(uint64(16 + i%2048))
		if err != nil {
			b.Fatal(err)
		}
		_ = a.Free(p)
	}
}

// ----- Engine comparison: tree-walking vs register bytecode -----

// engineCell is one prepared (benchmark, config) execution: module already
// compiled, optimized and instrumented, so the benchmark times only what
// the engines differ in — execution.
type engineCell struct {
	key  string
	m    *ir.Module
	opts vm.Options
}

// run executes the prepared cell on machine under kind. Programs come from
// the compiled-program cache, keyed by the cell and the compile options, so
// the repeated runs of one prepared module time execution only.
func (c engineCell) run(kind bytecode.EngineKind, machine *vm.VM) error {
	if kind != bytecode.EngineBytecode && kind != bytecode.EngineCompiler {
		_, err := machine.Run()
		return err
	}
	o := machine.Options()
	key := fmt.Sprintf("%s|%s|prof=%t|rec=%t", c.key, kind, o.SiteProfile, o.Forensics)
	eng, err := bytecode.NewEngine(bytecode.CompileCached(key, c.m, machine.CostModel(), o.SiteProfile, o.Forensics, kind), machine)
	if err != nil {
		return err
	}
	_, err = eng.Run()
	return err
}

func prepareEngineCells(b *testing.B, benches []*spec.Benchmark) []engineCell {
	b.Helper()
	configs := []harness.RunConfig{
		harness.BaselineConfig(),
		harness.PaperConfig(core.MechSoftBound),
		harness.PaperConfig(core.MechLowFat),
	}
	var cells []engineCell
	for _, sb := range benches {
		src, err := sb.Compile()
		if err != nil {
			b.Fatal(err)
		}
		for _, cfg := range configs {
			m := ir.CloneModule(src)
			var hook func(*ir.Module)
			if cfg.Instrument {
				coreCfg := cfg.Core
				hook = func(mod *ir.Module) {
					if _, ierr := core.Instrument(mod, coreCfg); ierr != nil {
						b.Fatal(ierr)
					}
				}
			}
			opt.RunPipeline(m, cfg.EP, hook, opt.PipelineOptions{Level: cfg.OptLevel})
			vopts := vm.Options{}
			if cfg.Instrument {
				switch cfg.Core.Mechanism {
				case core.MechSoftBound:
					vopts.Mechanism = vm.MechSoftBound
				case core.MechLowFat:
					vopts.Mechanism = vm.MechLowFat
					vopts.LowFatHeap = true
					vopts.LowFatStack = true
					vopts.LowFatGlobals = true
				}
			}
			cells = append(cells, engineCell{key: sb.Name + "|" + cfg.Label, m: m, opts: vopts})
		}
	}
	return cells
}

func runEngineCells(b *testing.B, kind bytecode.EngineKind, cells []engineCell) {
	b.Helper()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		instrs = 0
		for _, c := range cells {
			machine, err := vm.New(c.m, c.opts)
			if err != nil {
				b.Fatal(err)
			}
			if rerr := c.run(kind, machine); rerr != nil {
				b.Fatalf("%s: %v", c.key, rerr)
			}
			instrs += machine.Stats.Instrs
		}
	}
	b.ReportMetric(float64(instrs), "sim_instrs")
}

// BenchmarkEngineCampaignTree/Bytecode execute the standard campaign — all
// spec benchmarks under baseline, SoftBound and Low-Fat paper configs —
// on each engine. Compare ns/op between the two (see BENCH_ENGINES.md).
func BenchmarkEngineCampaignTree(b *testing.B) {
	cells := prepareEngineCells(b, spec.All())
	b.ResetTimer()
	runEngineCells(b, bytecode.EngineTree, cells)
}

func BenchmarkEngineCampaignBytecode(b *testing.B) {
	cells := prepareEngineCells(b, spec.All())
	b.ResetTimer()
	runEngineCells(b, bytecode.EngineBytecode, cells)
}

func BenchmarkEngineCampaignCompiler(b *testing.B) {
	cells := prepareEngineCells(b, spec.All())
	b.ResetTimer()
	runEngineCells(b, bytecode.EngineCompiler, cells)
}

// BenchmarkEngineSmoke* are the single-benchmark variants CI runs.
func BenchmarkEngineSmokeTree(b *testing.B) {
	cells := prepareEngineCells(b, []*spec.Benchmark{spec.All()[0]})
	b.ResetTimer()
	runEngineCells(b, bytecode.EngineTree, cells)
}

func BenchmarkEngineSmokeBytecode(b *testing.B) {
	cells := prepareEngineCells(b, []*spec.Benchmark{spec.All()[0]})
	b.ResetTimer()
	runEngineCells(b, bytecode.EngineBytecode, cells)
}

func BenchmarkEngineSmokeCompiler(b *testing.B) {
	cells := prepareEngineCells(b, []*spec.Benchmark{spec.All()[0]})
	b.ResetTimer()
	runEngineCells(b, bytecode.EngineCompiler, cells)
}

// ----- Toolchain microbenchmarks -----

const benchProg = `
int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
int main() { printf("%d\n", fib(18)); return 0; }`

func BenchmarkCompile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := cc.Compile("b", cc.Source{Name: "b.c", Code: benchProg}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimizePipeline(b *testing.B) {
	m, err := cc.Compile("b", cc.Source{Name: "b.c", Code: benchProg})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m2 := ir.CloneModule(m)
		opt.RunPipeline(m2, opt.EPVectorizerStart, nil, opt.PipelineOptions{Level: 3})
	}
}

func BenchmarkInstrumentSoftBound(b *testing.B) {
	m, err := cc.Compile("b", cc.Source{Name: "b.c", Code: benchProg})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m2 := ir.CloneModule(m)
		if _, err := core.Instrument(m2, core.PaperSoftBound()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVMInterpreter(b *testing.B) {
	m, err := cc.Compile("b", cc.Source{Name: "b.c", Code: benchProg})
	if err != nil {
		b.Fatal(err)
	}
	opt.RunPipeline(m, opt.EPVectorizerStart, nil, opt.PipelineOptions{Level: 3})
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		machine, err := vm.New(m, vm.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := machine.Run(); err != nil {
			b.Fatal(err)
		}
		instrs = machine.Stats.Instrs
	}
	b.ReportMetric(float64(instrs), "sim_instrs")
}
