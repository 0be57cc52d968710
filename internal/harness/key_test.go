package harness

import (
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/opt"
)

// TestCacheKeyStability pins the RunAxes.Key string form field by field.
// The key is the shared content address of a cell across the CLI's
// in-process cache, the checkpoint journal on disk, and the campaign
// server's dedup map: silently changing its format would orphan every
// existing journal (cells recompute instead of replaying) and break
// server/CLI report equality. Any intentional format change must update
// these goldens AND bump the journal version.
func TestCacheKeyStability(t *testing.T) {
	bc := RunAxes{Engine: bytecode.EngineBytecode}
	cases := []struct {
		name  string
		bench string
		cfg   RunConfig
		axes  RunAxes
		want  string
	}{
		{
			"baseline",
			"164gzip", BaselineConfig(), bc,
			"164gzip|i=false|m=0|mode=0|dom=false|hoist=false|szw=false|i2pw=false|c2w=false|ep=0|O=3|bytecode|prof=false|forensics=false|cost=default",
		},
		{
			"softbound paper config",
			"179art", PaperConfig(core.MechSoftBound), bc,
			"179art|i=true|m=0|mode=0|dom=true|hoist=false|szw=true|i2pw=true|c2w=false|ep=2|O=3|bytecode|prof=false|forensics=false|cost=default",
		},
		{
			"lowfat with hoisting on the tree engine",
			"179art", HoistConfig(core.MechLowFat), RunAxes{Engine: bytecode.EngineTree},
			"179art|i=true|m=1|mode=0|dom=true|hoist=true|szw=false|i2pw=false|c2w=true|ep=2|O=3|tree|prof=false|forensics=false|cost=default",
		},
		{
			"site profiling and forensics are distinct axes",
			"164gzip", BaselineConfig(), RunAxes{Engine: bytecode.EngineBytecode, SiteProfile: true, Forensics: true},
			"164gzip|i=false|m=0|mode=0|dom=false|hoist=false|szw=false|i2pw=false|c2w=false|ep=0|O=3|bytecode|prof=true|forensics=true|cost=default",
		},
	}
	for _, c := range cases {
		if got := c.axes.Key(c.bench, c.cfg); got != c.want {
			t.Errorf("%s:\n got  %s\n want %s", c.name, got, c.want)
		}
	}

	// The Label must NOT change the key (it is display-only: two labels
	// naming the same configuration share one cell).
	base := bc.Key("164gzip", BaselineConfig())
	relabeled := BaselineConfig()
	relabeled.Label = "renamed"
	if bc.Key("164gzip", relabeled) != base {
		t.Error("Label leaked into the key: identical configs under different labels would stop sharing cells")
	}

	// Every config field the instrumentation reads must be represented:
	// flipping each one must produce a distinct key.
	mutations := []func(*RunConfig){
		func(c *RunConfig) { c.Instrument = !c.Instrument },
		func(c *RunConfig) { c.Core.Mechanism = core.MechLowFat },
		func(c *RunConfig) { c.Core.Mode = core.ModeGenInvariants },
		func(c *RunConfig) { c.Core.OptDominance = !c.Core.OptDominance },
		func(c *RunConfig) { c.Core.OptHoist = !c.Core.OptHoist },
		func(c *RunConfig) { c.Core.SBSizeZeroWideUpper = !c.Core.SBSizeZeroWideUpper },
		func(c *RunConfig) { c.Core.SBIntToPtrWideBounds = !c.Core.SBIntToPtrWideBounds },
		func(c *RunConfig) { c.Core.LFTransformCommonToWeak = !c.Core.LFTransformCommonToWeak },
		func(c *RunConfig) { c.EP = opt.EPScalarOptimizerLate },
		func(c *RunConfig) { c.OptLevel = 0 },
	}
	seen := map[string]bool{base: true}
	for i, mut := range mutations {
		cfg := BaselineConfig()
		mut(&cfg)
		s := bc.Key("164gzip", cfg)
		if seen[s] {
			t.Errorf("mutation %d did not produce a distinct key: %s", i, s)
		}
		seen[s] = true
	}
}

// TestConfigByName pins the name -> configuration mapping the server and the
// mi-bench client both resolve: agreeing on these is what makes a
// server-merged report byte-identical to a local run.
func TestConfigByName(t *testing.T) {
	for _, name := range ConfigNames() {
		cfg, err := ConfigByName(name)
		if err != nil {
			t.Fatalf("ConfigByName(%q): %v", name, err)
		}
		if name != "baseline" && !cfg.Instrument {
			t.Errorf("%q resolved to an uninstrumented config", name)
		}
	}
	sb, _ := ConfigByName("softbound")
	if want := PaperConfig(core.MechSoftBound); sb != want {
		t.Errorf("softbound resolved to %+v, want %+v", sb, want)
	}
	hoist, _ := ConfigByName("lowfat+hoist")
	if !hoist.Core.OptHoist || hoist.Core.Mechanism != core.MechLowFat {
		t.Errorf("lowfat+hoist resolved wrong: %+v", hoist)
	}
	if _, err := ConfigByName("nonsense"); err == nil {
		t.Error("unknown config name did not error")
	}
	if _, err := ConfigByName("nonsense"); err == nil || !strings.Contains(err.Error(), "baseline") {
		t.Error("unknown-config error should list the known names")
	}
}
