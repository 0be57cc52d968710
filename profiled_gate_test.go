package repro

import (
	"testing"
	"time"

	"repro/internal/bytecode"
	"repro/internal/spec"
	"repro/internal/vm"
)

// TestProfiledCompilerGate is the observability neutrality gate for the
// compiler tier: site profiling must not disqualify the native tier (the
// generated code carries batched site-counter commits instead), so a
// profiled compiler campaign on the smoke set must stay within 2x of the
// unprofiled one. Both sides are warmed first (compilation and the plugin
// builds — the profiled programs hash to different plugins — are
// one-time costs) and take the best of three runs. Skipped under -short.
func TestProfiledCompilerGate(t *testing.T) {
	if testing.Short() {
		t.Skip("perf gate needs a quiet machine")
	}
	const gate = 2.0
	b := &testing.B{}
	cells := prepareEngineCells(b, []*spec.Benchmark{spec.All()[0]})

	run := func(profile bool) time.Duration {
		t.Helper()
		var best time.Duration
		for rep := 0; rep < 4; rep++ {
			var d time.Duration
			for _, c := range cells {
				opts := c.opts
				opts.SiteProfile = profile
				machine, err := vm.New(c.m, opts)
				if err != nil {
					t.Fatal(err)
				}
				start := time.Now()
				if rerr := c.run(bytecode.EngineCompiler, machine); rerr != nil {
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

	plain := run(false)
	rows0, _ := bytecode.TierStats()
	entries0 := nativeEntries(rows0)
	failures0 := bytecode.NativeStats().Failures
	profiled := run(true)
	rows1, _ := bytecode.TierStats()

	ratio := float64(profiled) / float64(plain)
	t.Logf("smoke set: unprofiled=%v profiled=%v ratio=%.2fx (gate %.1fx)", plain, profiled, ratio, gate)
	if ratio >= gate {
		t.Fatalf("profiled compiler campaign %.2fx of unprofiled, gate is %.1fx (unprofiled=%v profiled=%v)",
			ratio, gate, plain, profiled)
	}
	// The gate only means something if the profiled side actually ran native
	// code — otherwise it compares two interpreter runs.
	if !bytecode.NativeAvailable() || bytecode.NativeStats().Failures > failures0 {
		t.Log("native tier unavailable or builds failed; gate compared interpreter runs only")
		return
	}
	if d := nativeEntries(rows1) - entries0; d == 0 {
		t.Error("profiled compiler runs never entered native code; the gate did not exercise profiled native execution")
	}
}

// nativeEntries sums native-code entries across the tier-attribution rows.
func nativeEntries(rows []bytecode.TierFnStats) uint64 {
	var n uint64
	for _, r := range rows {
		n += r.NativeEntries
	}
	return n
}
