package repro

import (
	"testing"
	"time"

	"repro/internal/bytecode"
	"repro/internal/spec"
	"repro/internal/vm"
)

// TestCompilerPerfGate is the CI perf gate for the compiler tier: on the
// smoke set (first spec benchmark, three campaign configs) the compiler
// engine must run at least 3x faster than the bytecode engine. Both sides
// are warmed first — compilation and the native-plugin build are
// one-time costs amortized across a campaign, and the timed region is
// execution — and each side takes the best of three runs to shed scheduler
// noise. Skipped under -short (the gate needs a quiet machine).
func TestCompilerPerfGate(t *testing.T) {
	if testing.Short() {
		t.Skip("perf gate needs a quiet machine")
	}
	const want = 3.0
	b := &testing.B{}
	cells := prepareEngineCells(b, []*spec.Benchmark{spec.All()[0]})

	run := func(kind bytecode.EngineKind) time.Duration {
		t.Helper()
		var best time.Duration
		for rep := 0; rep < 4; rep++ {
			var d time.Duration
			for _, c := range cells {
				machine, err := vm.New(c.m, c.opts)
				if err != nil {
					t.Fatal(err)
				}
				start := time.Now()
				if rerr := c.run(kind, machine); rerr != nil {
					t.Fatalf("%s: %v", c.key, rerr)
				}
				d += time.Since(start)
			}
			if rep == 0 {
				continue // warm-up: compile, build native plugins
			}
			if best == 0 || d < best {
				best = d
			}
		}
		return best
	}

	bc := run(bytecode.EngineBytecode)
	comp := run(bytecode.EngineCompiler)
	speedup := float64(bc) / float64(comp)
	t.Logf("smoke set: bytecode=%v compiler=%v speedup=%.2fx (gate %.1fx)", bc, comp, speedup, want)
	if speedup < want {
		t.Fatalf("compiler tier speedup %.2fx below the %.1fx gate (bytecode=%v compiler=%v)", speedup, want, bc, comp)
	}
}
