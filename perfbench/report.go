package main

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/bytecode"
)

// processDeltas runs f and records the per-layer metrics read from the
// process-wide counters of the bytecode package: NativeStats, TierStats and
// CacheStats are shared by both workers, so they are reported per window,
// not per cell.
func (rn *run) processDeltas(f func()) bytecode.NativeTierStats {
	n0, t0 := bytecode.NativeStats(), tierNow()
	h0, m0 := bytecode.CacheStats()
	f()
	nd, td := nativeDelta(n0, bytecode.NativeStats()), t0.delta(tierNow())
	h1, m1 := bytecode.CacheStats()
	L := rn.layers
	L["bytecode.native_builds"] = float64(nd.Builds)
	L["bytecode.native_cache_hits"] = float64(nd.CacheHits)
	L["bytecode.native_fallbacks"] = float64(fallbacks(nd))
	L["bytecode.native_build_ms"] = ratio(float64(nd.BuildNS)/1e6, float64(nd.Builds))
	L["bytecode.native_bails"] = float64(td.bails)
	L["bytecode.tier_native_share"] = ratio(float64(td.native), float64(td.total))
	L["bytecode.tier_fused_share"] = ratio(float64(td.fused), float64(td.total))
	L["bytecode.tier_quick_share"] = ratio(float64(td.quick), float64(td.total))
	L["bytecode.cache_hit_ratio"] = ratio(float64(h1-h0), float64(h1-h0+m1-m0))
	return nd
}

// tracedCampaign runs f, the traced half of a campaign window whose cells go
// through st, and derives the per-layer metrics from its spans and counts.
// Stage times are per cell, so the stages add up to harness.cell_ms less
// harness.self_ms.
func (rn *run) tracedCampaign(st *stager, f func() []cellOutcome) []cellOutcome {
	rn.tracer = st.tr
	var cells []cellOutcome
	nd := rn.processDeltas(func() { cells = f() })
	rn.countOps(cells)
	rn.nativeOps(nd, len(cells))
	total, self, n := st.tr.layerTimes()
	per := func(v float64) float64 { return ratio(v, float64(n)) }
	L := rn.layers
	L["cc.compile_ms"] = per(total["cc.compile"])
	L["opt.pipeline_ms"] = per(self["opt.pipeline"])
	L["core.instrument_ms"] = per(total["core.instrument"])
	L["vm.new_ms"] = per(total["vm.new"])
	L["bytecode.compile_ms"] = per(total["bytecode.compile"])
	L["bytecode.bind_ms"] = per(total["bytecode.bind"])
	L["bytecode.exec_ms"] = per(total["bytecode.exec"])
	L["harness.cell_ms"] = per(total["harness.cell"])
	L["harness.self_ms"] = per(self["harness.cell"])
	c := st.n
	L["opt.ir_instrs"] = per(float64(c.irInstrs))
	L["bytecode.ops"] = per(float64(c.ops))
	L["core.checks_placed"] = per(float64(c.checksPlaced))
	L["core.checks_eliminated"] = per(float64(c.checksEliminated))
	L["core.checks_hoisted"] = per(float64(c.checksHoisted))
	L["vm.instrs"] = per(float64(c.instrs))
	L["vm.checks"] = per(float64(c.checks))
	L["bytecode.exec_minstrs_per_s"] = ratio(float64(c.instrs), total["bytecode.exec"]) / 1000
	L["harness.cache_hit_ratio"] = ratio(float64(rn.harnessHits), float64(rn.harnessLookups))
	L["bench.trace_overhead_ratio"] = ratio(median(latencies(cells)), median(latencies(rn.ops)))
	rn.note("traced: %d cells; stage spans cover %.1f%% of the cell wall time, the rest is harness.self_ms",
		n, 100*ratio(total["harness.cell"]-self["harness.cell"], total["harness.cell"]))
	return cells
}

// report prints every metric by name with its unit, the validity flags and
// the failures, then the JSON result line.
func (rn *run) report() {
	var setups, lat []float64
	for _, d := range rn.setups {
		setups = append(setups, d.Seconds())
	}
	completed, sloOK := 0, 0
	for _, o := range rn.ops {
		lat = append(lat, ms(o.lat))
		if o.err == nil {
			completed++
			if o.lat <= rn.workload.slo {
				sloOK++
			}
		}
	}
	e2e := map[string]float64{
		"setup_s":      median(setups),
		"ops_per_s":    float64(completed) / rn.elapsed.Seconds(),
		"op_ms_p50":    median(lat),
		"op_ms_p90":    quantile(lat, 0.9),
		"peak_rss_mb":  rn.rss,
		"slo_ok_ratio": ratio(float64(sloOK), float64(len(rn.ops))),
	}
	if len(rn.passRates) > 0 {
		e2e["ops_per_s"] = median(rn.passRates)
	}
	if len(rn.sims) > 0 {
		e2e["sim_overhead_sb_x"], e2e["sim_overhead_lf_x"] = rn.sims[0][0], rn.sims[0][1]
	}

	fmt.Printf("workload %s seed %d window %v trace %t\n", rn.workloadName, rn.seed, rn.window, rn.trace)
	fmt.Printf("ops: %d timed, %d attempted, %d failed (fail_ratio %.4f); p90 from %d samples\n",
		len(rn.ops), rn.attempted, rn.failed, ratio(float64(rn.failed), float64(rn.attempted)), len(lat))
	fmt.Printf("setup: %d repetitions %v\n", len(rn.setups), rn.setups)
	for _, n := range rn.notes {
		fmt.Println(n)
	}
	if len(rn.invalids) == 0 {
		fmt.Println("validity: ok")
	}
	for _, v := range rn.invalids {
		fmt.Println("validity: INVALID:", v)
	}
	for i, e := range rn.errs {
		if i == 10 {
			fmt.Printf("error: ... %d more\n", len(rn.errs)-i)
			break
		}
		fmt.Println("error:", e)
	}
	for _, d := range endToEnd {
		fmt.Printf("metric %s %.6g %s\n", d.name, e2e[d.name], d.unit)
	}
	fmt.Printf("metric op_ms_p90 %.6g ms (%d samples beyond it; not in the result line)\n",
		e2e["op_ms_p90"], len(lat)-int(math.Ceil(0.9*float64(len(lat)))))
	defs, vals := endToEnd, e2e
	if rn.trace {
		for _, d := range perLayer {
			fmt.Printf("metric %s %.6g %s\n", d.name, rn.layers[d.name], d.unit)
		}
		defs, vals = perLayer, rn.layers
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(rn.errs) == 0 && rn.failed == 0, rn.attempted, rn.failed, map[string]value{}}
	for _, d := range defs {
		out.Metrics[d.name] = value{vals[d.name], d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		// A NaN or Inf value: a metric was computed from nothing.
		fatal(fmt.Errorf("encoding the result: %w", err))
	}
	fmt.Println(string(line))
}
