package harness

import (
	"fmt"
	"sort"

	"repro/internal/bytecode"
	"repro/internal/core"
)

// RunAxes bundles the execution axes of a cell that are not part of its
// RunConfig: the engine and the VM instrumentation toggles. The Runner holds
// one default set (SetAxes); the campaign server passes explicit per-request
// axes instead, so concurrent requests with different engines never race on
// runner state.
type RunAxes struct {
	// Engine is the execution engine. Engines are differentially tested to
	// identical stats, but wall times and failure modes are per-engine, so
	// results are never shared across them.
	Engine bytecode.EngineKind
	// SiteProfile and Forensics select the instrumented VM variants; each
	// caches separately (a profiled result carries counters a plain run
	// lacks, and vice versa).
	SiteProfile bool
	Forensics   bool
}

// Key renders the content-addressed identity of one campaign cell under
// these axes: every input that changes the observable result of executing
// the benchmark. The key is shared by the runner's in-process result cache,
// the checkpoint journal (resilience.Journal entries are keyed by it) and
// the campaign server (mi-serve deduplicates cells across concurrent
// requests by it) — a journal written by mi-bench warms mi-serve's cache and
// vice versa, so the format must stay stable; TestCacheKeyStability pins it.
//
// The config's Label is display-only and deliberately not part of the key:
// two labels naming identical configurations (e.g. Figure 9's "softbound"
// and Figure 10's "softbound-opt") share one cell. Every run uses
// vm.DefaultCostModel; the key still ends in the constant "cost=default" so
// that existing journals keep replaying.
func (ax RunAxes) Key(bench string, cfg RunConfig) string {
	return bench + "|" + configKey(cfg) + "|" + ax.Engine.String() +
		fmt.Sprintf("|prof=%t|forensics=%t|cost=default", ax.SiteProfile, ax.Forensics)
}

// namedConfigs maps the wire names a campaign request may use to their
// constructors. Names, not serialized structs, cross the HTTP boundary: the
// server and CLI then provably agree on every config field (and hence on the
// cache key), which is what makes a server-merged report byte-identical to a
// local run.
var namedConfigs = map[string]func() RunConfig{
	"baseline":        BaselineConfig,
	"softbound":       func() RunConfig { return PaperConfig(core.MechSoftBound) },
	"lowfat":          func() RunConfig { return PaperConfig(core.MechLowFat) },
	"softbound+hoist": func() RunConfig { return HoistConfig(core.MechSoftBound) },
	"lowfat+hoist":    func() RunConfig { return HoistConfig(core.MechLowFat) },
	"softbound-noopt": func() RunConfig { return modeConfigs(core.MechSoftBound)[1] },
	"lowfat-noopt":    func() RunConfig { return modeConfigs(core.MechLowFat)[1] },
	"softbound-meta":  func() RunConfig { return modeConfigs(core.MechSoftBound)[2] },
	"lowfat-meta":     func() RunConfig { return modeConfigs(core.MechLowFat)[2] },
}

// ConfigByName resolves a campaign request's configuration name.
func ConfigByName(name string) (RunConfig, error) {
	mk, ok := namedConfigs[name]
	if !ok {
		return RunConfig{}, fmt.Errorf("unknown config %q (known: %v)", name, ConfigNames())
	}
	return mk(), nil
}

// ConfigNames lists the known configuration names, sorted.
func ConfigNames() []string {
	names := make([]string, 0, len(namedConfigs))
	for n := range namedConfigs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
