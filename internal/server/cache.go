package server

import (
	"fmt"
	"sort"

	"repro/internal/bytecode"
	"repro/internal/harness"
	"repro/internal/resilience"
	"repro/internal/spec"
)

// The server's result cache IS the harness runner's content-addressed
// singleflight cache — this file is the glue that turns HTTP campaign
// requests into content-addressed cells, warms the cache from a checkpoint
// journal, and snapshots cache statistics for /statsz. Keying by
// harness.RunAxes.Key (source benchmark x config x engine x instrumentation
// axes) is what makes identical cells across requests the common case: a
// fleet of users re-running the standard matrix shares one computation per
// cell.

// CampaignRequest is the JSON body of POST /campaign: a benchmark set, a
// configuration matrix (named — see harness.ConfigNames — so server and
// client provably agree on every config field and hence on the cache key),
// an engine, and the VM instrumentation axes.
type CampaignRequest struct {
	// Benches selects benchmarks by name; empty means the full suite.
	Benches []string `json:"benches,omitempty"`
	// Configs names the configurations of the matrix (required).
	Configs []string `json:"configs"`
	// Engine is "tree", "bytecode" (default) or "compiler".
	Engine string `json:"engine,omitempty"`
	// SiteProfile and Forensics toggle the instrumented VM variants.
	SiteProfile bool `json:"site_profile,omitempty"`
	Forensics   bool `json:"forensics,omitempty"`
}

// expand resolves a request into its cells (bench x config, each keyed) and
// the request's execution axes. Every name is validated up front so a bad
// request fails as one 400, not as a half-executed campaign.
func expand(req CampaignRequest) ([]cell, harness.RunAxes, error) {
	var axes harness.RunAxes
	if len(req.Configs) == 0 {
		return nil, axes, fmt.Errorf("request names no configs (known: %v)", harness.ConfigNames())
	}
	engineName := req.Engine
	if engineName == "" {
		engineName = "bytecode"
	}
	engine, err := bytecode.ParseEngine(engineName)
	if err != nil {
		return nil, axes, err
	}
	axes = harness.RunAxes{Engine: engine, SiteProfile: req.SiteProfile, Forensics: req.Forensics}

	benches := spec.All()
	if len(req.Benches) > 0 {
		byName := make(map[string]*spec.Benchmark, len(benches))
		for _, b := range benches {
			byName[b.Name] = b
		}
		picked := make([]*spec.Benchmark, 0, len(req.Benches))
		seen := make(map[string]bool)
		for _, name := range req.Benches {
			b, ok := byName[name]
			if !ok {
				return nil, axes, fmt.Errorf("unknown benchmark %q", name)
			}
			if seen[name] {
				continue
			}
			seen[name] = true
			picked = append(picked, b)
		}
		benches = picked
	}

	configs := make([]harness.RunConfig, 0, len(req.Configs))
	seenCfg := make(map[string]bool)
	for _, name := range req.Configs {
		cfg, err := harness.ConfigByName(name)
		if err != nil {
			return nil, axes, err
		}
		if seenCfg[name] {
			continue
		}
		seenCfg[name] = true
		configs = append(configs, cfg)
	}

	cells := make([]cell, 0, len(benches)*len(configs))
	for _, b := range benches {
		for _, cfg := range configs {
			cells = append(cells, cell{
				bench: b,
				cfg:   cfg,
				axes:  axes,
				key:   axes.Key(b.Name, cfg),
			})
		}
	}
	return cells, axes, nil
}

// keysOf lists the cells' cache keys in submission order.
func keysOf(cells []cell) []string {
	keys := make([]string, len(cells))
	for i, c := range cells {
		keys[i] = c.key
	}
	return keys
}

// warmUp loads a checkpoint journal into the runner: journaled cells replay
// from it instead of executing, so a server restarted over an existing
// journal serves its whole prior working set without recomputation. The
// journal format and keys are shared with mi-bench (-journal/-resume), so a
// batch campaign's checkpoints warm the server and vice versa.
func warmUp(r *harness.Runner, path string) (resilience.LoadStats, error) {
	return r.Resume(path)
}

// CacheStats is the /statsz cache section: the content-addressed result
// cache's hit economics plus the per-status outcome of every cell computed
// so far.
type CacheStats struct {
	// Hits were served without executing (including coalesced singleflight
	// waiters); Computed cells executed. HitRate is Hits/(Hits+Computed).
	Hits     uint64  `json:"hits"`
	Computed uint64  `json:"computed"`
	HitRate  float64 `json:"hit_rate"`
	// Warmed is how many journaled cells were armed for replay at startup.
	Warmed int `json:"warmed"`
	// ByStatus counts completed cells per supervision status (ok, retried,
	// timeout, oom, panic, failed, skipped).
	ByStatus map[string]int `json:"by_status,omitempty"`
	// BadCells lists cells that did not complete cleanly, sorted.
	BadCells []string `json:"bad_cells,omitempty"`
}

// cacheStats snapshots the runner's cache counters and cell statuses.
func cacheStats(r *harness.Runner, warmed int) CacheStats {
	hits, misses := r.CacheStats()
	st := CacheStats{Hits: hits, Computed: misses, Warmed: warmed}
	if total := hits + misses; total > 0 {
		st.HitRate = float64(hits) / float64(total)
	}
	counts, bad := r.CellStatuses()
	if len(counts) > 0 {
		st.ByStatus = counts
	}
	sort.Strings(bad)
	st.BadCells = bad
	return st
}
