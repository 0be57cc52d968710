package opt_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/spec"
)

// BenchmarkPipelineMatrix times the optimization pipeline alone over the
// 180-cell matrix: every benchmark under every named configuration, each
// cell a whole opt.RunPipeline (with the instrumentation hook for the
// instrumented configurations) on a clone of the compiled frontend module.
// Frontends are compiled before the timer starts. Run with -benchmem.
func BenchmarkPipelineMatrix(b *testing.B) {
	var cfgs []harness.RunConfig
	for _, name := range harness.ConfigNames() {
		cfg, err := harness.ConfigByName(name)
		if err != nil {
			b.Fatal(err)
		}
		cfgs = append(cfgs, cfg)
	}
	var fronts []*ir.Module
	for _, bm := range spec.All() {
		m, err := bm.Compile()
		if err != nil {
			b.Fatal(err)
		}
		fronts = append(fronts, m)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, front := range fronts {
			for _, cfg := range cfgs {
				var hook func(*ir.Module)
				if cfg.Instrument {
					hook = func(m *ir.Module) {
						if _, err := core.Instrument(m, cfg.Core); err != nil {
							b.Fatal(err)
						}
					}
				}
				opt.RunPipeline(ir.CloneModule(front), cfg.EP, hook, opt.PipelineOptions{Level: cfg.OptLevel})
			}
		}
	}
}
