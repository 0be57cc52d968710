package harness

import (
	"testing"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/spec"
	"repro/internal/vm"
)

// TestResultCacheKeyedByAxes pins down the result-cache contract: a cached
// result is served again only when every axis that changes the observable
// outcome matches — the engine, the site-profile setting, and the cost
// model. Serving a hit across any of those axes would silently report one
// configuration's numbers for another.
func TestResultCacheKeyedByAxes(t *testing.T) {
	b := spec.All()[0]
	cfg := PaperConfig(core.MechSoftBound)
	r := NewRunner()
	r.SetEngine(bytecode.EngineBytecode)

	run := func(what string) *Result {
		t.Helper()
		res, err := r.Run(b, cfg)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if res.Err != nil {
			t.Fatalf("%s: run failed: %v", what, res.Err)
		}
		return res
	}

	base := run("baseline run")
	if again := run("identical rerun"); again != base {
		t.Error("identical settings re-executed instead of hitting the cache")
	}
	if base.SiteProfile != nil {
		t.Error("profiling was off but the result carries a site profile")
	}

	// Axis 1: site profiling. The profiled run must not reuse the
	// unprofiled entry (it would have no counters), and vice versa.
	r.SetSiteProfile(true)
	prof := run("site-profile run")
	if prof == base {
		t.Error("site-profile run was served the unprofiled cached result")
	}
	if prof.SiteProfile == nil {
		t.Error("site-profile run recorded no per-site counters")
	}
	r.SetSiteProfile(false)

	// Axis 2: engine. Stats are differential-tested identical, but wall
	// times and failure modes are per-engine, so entries must not be shared.
	r.SetEngine(bytecode.EngineTree)
	tree := run("tree-engine run")
	if tree == base || tree == prof {
		t.Error("tree-engine run was served a bytecode-engine cached result")
	}
	r.SetEngine(bytecode.EngineBytecode)

	// Axis 3: cost model. A custom model must miss, and its effect must be
	// visible in the accumulated cost.
	cm := *vm.DefaultCostModel()
	cm.SBCheck *= 10
	r.SetCostModel(&cm)
	costly := run("custom-cost run")
	if costly == base || costly == prof || costly == tree {
		t.Error("custom-cost run was served a default-cost cached result")
	}
	if costly.Stats.Cost <= base.Stats.Cost {
		t.Errorf("10x SBCheck cost model did not raise cost: default=%d custom=%d",
			base.Stats.Cost, costly.Stats.Cost)
	}
	r.SetCostModel(nil)

	// Returning to the original settings must land back on the original
	// entry — the axis keys are stable, not merely distinct.
	if again := run("restored-settings rerun"); again != base {
		t.Error("restoring the original settings did not hit the original entry")
	}

	if got := len(r.cache); got != 4 {
		t.Errorf("cache holds %d entries, want 4 (one per distinct axis combination)", got)
	}
}

// TestCellsBypassProgramCache: every attempt compiles a fresh module
// instance, so a cell's program can never be served from bytecode's
// compiled-program cache. Cells must compile directly and leave that cache
// (and its counters) untouched, on both bytecode engines, with and without
// site profiling, across runners.
func TestCellsBypassProgramCache(t *testing.T) {
	b := spec.ByName("179art")
	h0, m0 := bytecode.CacheStats()
	for round := 0; round < 2; round++ {
		r := NewRunner()
		for _, engine := range []bytecode.EngineKind{bytecode.EngineBytecode, bytecode.EngineCompiler} {
			for _, prof := range []bool{false, true} {
				for _, cfg := range []RunConfig{PaperConfig(core.MechSoftBound), PaperConfig(core.MechLowFat)} {
					res, _, err := r.RunCell(b, cfg, RunAxes{Engine: engine, SiteProfile: prof})
					if err != nil {
						t.Fatalf("%s/%s/%v prof=%v: %v", b.Name, cfg.Label, engine, prof, err)
					}
					if res.Err != nil {
						t.Fatalf("%s/%s/%v prof=%v: run failed: %v", b.Name, cfg.Label, engine, prof, res.Err)
					}
				}
			}
		}
	}
	if h1, m1 := bytecode.CacheStats(); h1 != h0 || m1 != m0 {
		t.Errorf("program cache moved: hits %d -> %d, misses %d -> %d", h0, h1, m0, m1)
	}
}
