package harness

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/spec"
)

// checkOptConfigs are the three optimization levels the check-optimization
// ablation compares for one mechanism: no check optimization at all, the
// paper's dominance-based elimination, and dominance plus loop-aware check
// hoisting.
func checkOptConfigs(mech core.Mech) []RunConfig {
	off := PaperConfig(mech)
	off.Core.OptDominance = false
	off.Label = mech.String() + "+nocheckopt"
	return []RunConfig{off, PaperConfig(mech), HoistConfig(mech)}
}

// CheckOptCell is one (benchmark, mechanism, optimization level) execution in
// the ablation.
type CheckOptCell struct {
	// Checks counts executed per-iteration dereference checks; RangeChecks
	// counts executed hoisted range checks (0 unless hoisting is on). Their
	// sum is the total dynamic check count the ablation compares.
	Checks      uint64 `json:"checks"`
	RangeChecks uint64 `json:"range_checks,omitempty"`
	// Cost is the VM's dynamic cost (the paper's time proxy); WallMS the
	// host wall-clock time of the run.
	Cost   uint64  `json:"cost"`
	WallMS float64 `json:"wall_ms"`
	// Static effect of the optimizations at instrumentation time.
	ChecksEliminated int    `json:"checks_eliminated,omitempty"`
	ChecksHoisted    int    `json:"checks_hoisted,omitempty"`
	Err              string `json:"err,omitempty"`
}

// Total is the total dynamic check count of the cell (per-iteration checks
// plus executed range checks).
func (c *CheckOptCell) Total() uint64 { return c.Checks + c.RangeChecks }

// CheckOptRow is the ablation of one benchmark under one mechanism.
type CheckOptRow struct {
	Bench string `json:"bench"`
	Mech  string `json:"mech"`
	// Off: no check optimization; Dom: dominance elimination (the paper's
	// Section 5.3 configuration); Hoist: dominance plus loop hoisting.
	Off   CheckOptCell `json:"off"`
	Dom   CheckOptCell `json:"dom"`
	Hoist CheckOptCell `json:"dom_hoist"`
	// DomPct is the dynamic check reduction of Dom over Off, in percent;
	// HoistPct the further reduction of Hoist over Dom.
	DomPct   float64 `json:"dom_pct"`
	HoistPct float64 `json:"hoist_pct"`
}

// CheckOptReport is the -checkopt output of mi-bench.
type CheckOptReport struct {
	Engine string        `json:"engine"`
	Rows   []CheckOptRow `json:"rows"`
}

// reductionPct returns how much smaller now is than before, in percent.
func reductionPct(before, now uint64) float64 {
	if before == 0 {
		return 0
	}
	return 100 * (float64(before) - float64(now)) / float64(before)
}

// CheckOptAblation runs every benchmark under both mechanisms at the three
// check-optimization levels and reports dynamic check counts, cost and wall
// time. Cells that fail carry their error and zero counts; the sweep always
// completes.
func (r *Runner) CheckOptAblation(benches []*spec.Benchmark) *CheckOptReport {
	if len(benches) == 0 {
		benches = spec.All()
	}
	mechs := []core.Mech{core.MechSoftBound, core.MechLowFat}
	rep := &CheckOptReport{Engine: r.Axes().Engine.String()}
	rep.Rows = make([]CheckOptRow, len(benches)*len(mechs))

	var wg sync.WaitGroup
	for bi, b := range benches {
		for mi, mech := range mechs {
			row := &rep.Rows[bi*len(mechs)+mi]
			row.Bench, row.Mech = b.Name, mech.String()
			cfgs := checkOptConfigs(mech)
			for ci, cfg := range cfgs {
				cell := [...]*CheckOptCell{&row.Off, &row.Dom, &row.Hoist}[ci]
				wg.Add(1)
				go func(b *spec.Benchmark, cfg RunConfig, cell *CheckOptCell) {
					defer wg.Done()
					res, err := r.Run(b, cfg)
					if err != nil {
						cell.Err = err.Error()
						return
					}
					if res.Err != nil {
						cell.Err = res.Err.Error()
					}
					cell.Checks = res.Stats.Checks
					cell.RangeChecks = res.Stats.RangeChecks
					cell.Cost = res.Stats.Cost
					cell.WallMS = float64(res.Wall.Microseconds()) / 1000.0
					if res.InstrStats != nil {
						cell.ChecksEliminated = res.InstrStats.Opt.ChecksEliminated
						cell.ChecksHoisted = res.InstrStats.Opt.ChecksHoisted
					}
				}(b, cfg, cell)
			}
		}
	}
	wg.Wait()
	for i := range rep.Rows {
		row := &rep.Rows[i]
		row.DomPct = reductionPct(row.Off.Total(), row.Dom.Total())
		row.HoistPct = reductionPct(row.Dom.Total(), row.Hoist.Total())
	}
	return rep
}

// RenderCheckOpt renders the ablation as one text table per mechanism, with
// the geometric-mean check reduction of each optimization step.
func RenderCheckOpt(rep *CheckOptReport) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Check-optimization ablation (engine=%s)\n", rep.Engine)
	sb.WriteString("dynamic check counts: off = no check optimization, dom = dominance\n")
	sb.WriteString("elimination (paper Section 5.3), dom+hoist = dominance + loop-aware\n")
	sb.WriteString("hoisting; range checks (in parentheses) are included in the totals\n")
	for _, mech := range []string{"softbound", "lowfat"} {
		fmt.Fprintf(&sb, "\n[%s]\n", mech)
		fmt.Fprintf(&sb, "  %-12s  %14s  %14s  %22s  %6s  %6s\n",
			"bench", "off", "dom", "dom+hoist (range)", "dom%", "hoist%")
		var domR, hoistR []float64
		for _, row := range rep.Rows {
			if row.Mech != mech {
				continue
			}
			if e := firstErr(row); e != "" {
				fmt.Fprintf(&sb, "  %-12s  FAILED: %s\n", row.Bench, e)
				continue
			}
			fmt.Fprintf(&sb, "  %-12s  %14d  %14d  %14d (%6d)  %5.1f%%  %5.1f%%\n",
				row.Bench, row.Off.Total(), row.Dom.Total(),
				row.Hoist.Total(), row.Hoist.RangeChecks, row.DomPct, row.HoistPct)
			domR = append(domR, 1-row.DomPct/100)
			hoistR = append(hoistR, 1-row.HoistPct/100)
		}
		fmt.Fprintf(&sb, "  geomean reduction: dom %s, hoist (over dom) %s\n",
			geoReductionPct(domR), geoReductionPct(hoistR))
	}
	return sb.String()
}

// geoReductionPct renders 100*(1-GeoMean(ratios)) as a percentage, or "n/a"
// when every row failed and the geomean is undefined (NaN).
func geoReductionPct(ratios []float64) string {
	gm := GeoMean(ratios)
	if math.IsNaN(gm) {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*(1-gm))
}

func firstErr(row CheckOptRow) string {
	for _, c := range []CheckOptCell{row.Off, row.Dom, row.Hoist} {
		if c.Err != "" {
			return c.Err
		}
	}
	return ""
}

// WriteCheckOptJSON writes the ablation report to path as indented JSON.
func WriteCheckOptJSON(rep *CheckOptReport, path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// RenderCheckOptMarkdown renders the ablation as a Markdown document
// (BENCH_CHECKOPT.md).
func RenderCheckOptMarkdown(rep *CheckOptReport) string {
	var sb strings.Builder
	sb.WriteString("# Check-optimization ablation\n\n")
	fmt.Fprintf(&sb, "Engine: `%s`. Columns are total dynamic check counts (per-iteration\n", rep.Engine)
	sb.WriteString("checks plus hoisted range checks): `off` disables all check\n")
	sb.WriteString("optimizations, `dom` is the paper's dominance-based elimination\n")
	sb.WriteString("(Section 5.3), `dom+hoist` adds loop-aware check hoisting. `dom%` is\n")
	sb.WriteString("the reduction of `dom` over `off`; `hoist%` the further reduction of\n")
	sb.WriteString("`dom+hoist` over `dom`. `wall` is the `dom+hoist` run's wall time.\n")
	for _, mech := range []string{"softbound", "lowfat"} {
		fmt.Fprintf(&sb, "\n## %s\n\n", mech)
		sb.WriteString("| bench | off | dom | dom+hoist | range checks | dom% | hoist% | wall (ms) |\n")
		sb.WriteString("|---|---:|---:|---:|---:|---:|---:|---:|\n")
		var domR, hoistR []float64
		for _, row := range rep.Rows {
			if row.Mech != mech {
				continue
			}
			if e := firstErr(row); e != "" {
				fmt.Fprintf(&sb, "| %s | FAILED: %s | | | | | | |\n", row.Bench, e)
				continue
			}
			fmt.Fprintf(&sb, "| %s | %d | %d | %d | %d | %.1f%% | %.1f%% | %.1f |\n",
				row.Bench, row.Off.Total(), row.Dom.Total(), row.Hoist.Total(),
				row.Hoist.RangeChecks, row.DomPct, row.HoistPct, row.Hoist.WallMS)
			domR = append(domR, 1-row.DomPct/100)
			hoistR = append(hoistR, 1-row.HoistPct/100)
		}
		fmt.Fprintf(&sb, "| **geomean reduction** | | | | | **%s** | **%s** | |\n",
			geoReductionPct(domR), geoReductionPct(hoistR))
	}
	return sb.String()
}
