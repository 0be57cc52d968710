package harness

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/spec"
)

func benchNamed(t *testing.T, name string) *spec.Benchmark {
	t.Helper()
	for _, b := range spec.All() {
		if b.Name == name {
			return b
		}
	}
	t.Fatalf("no benchmark %q", name)
	return nil
}

// TestRunnerMetricsReconcile runs a tiny campaign with the full observability
// plane on and checks that the metrics agree with the report: one
// mi_cells_total increment and one histogram observation per executed cell,
// cache lookups split exactly into hits and misses, and every log record
// stamped with the campaign trace ID.
func TestRunnerMetricsReconcile(t *testing.T) {
	r := NewRunner()
	reg := obs.NewRegistry()
	r.SetMetrics(reg)
	var logBuf bytes.Buffer
	lg, err := obs.NewLogger(&logBuf, "debug", "json")
	if err != nil {
		t.Fatal(err)
	}
	r.SetLogger(lg)
	r.SetTraceID("t-unit")

	b := benchNamed(t, "164gzip")
	configs := []RunConfig{BaselineConfig(), PaperConfig(core.MechSoftBound), PaperConfig(core.MechLowFat)}
	for _, cfg := range configs {
		if _, err := r.Run(b, cfg); err != nil {
			t.Fatalf("%s: %v", cfg.Label, err)
		}
	}
	if _, err := r.Run(b, configs[0]); err != nil { // cache hit
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if snap == nil {
		t.Fatal("registry snapshot is nil")
	}
	if got := snap.SumCounter("mi_cells_total"); got != float64(len(configs)) {
		t.Errorf("mi_cells_total = %v, want %d", got, len(configs))
	}
	lookups := snap.SumCounter("mi_cache_lookups_total")
	hits := snap.SumCounter("mi_cache_hits_total")
	misses := snap.SumCounter("mi_cache_misses_total")
	if lookups != 4 || hits != 1 || misses != 3 {
		t.Errorf("lookups=%v hits=%v misses=%v, want 4/1/3", lookups, hits, misses)
	}
	for _, h := range []string{"mi_cell_execute_seconds", "mi_cell_total_seconds"} {
		if got := snap.SumHistogramCount(h); got != uint64(len(configs)) {
			t.Errorf("%s count = %d, want %d", h, got, len(configs))
		}
	}
	eng := r.Axes().Engine.String()
	for _, mech := range []string{"none", "softbound", "lowfat"} {
		p := snap.Find("mi_cells_total", map[string]string{"engine": eng, "mechanism": mech, "status": "ok"})
		if p == nil || p.Value != 1 {
			t.Errorf("mi_cells_total{engine=%s,mechanism=%s,status=ok} = %+v, want value 1", eng, mech, p)
		}
	}

	rep := r.PerfReport()
	if rep.Metrics == nil {
		t.Fatal("PerfReport.Metrics is nil with a registry installed")
	}
	if len(rep.Records) != len(configs) {
		t.Fatalf("report has %d records, want %d", len(rep.Records), len(configs))
	}
	if rep.Canonical().Metrics != nil {
		t.Error("Canonical() must drop the metrics snapshot")
	}
	if !strings.Contains(rep.Metrics.Render(), "mi_cells_total") {
		t.Error("rendered snapshot is missing mi_cells_total")
	}

	// Every log record is JSON and carries the campaign trace ID.
	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("no log records emitted")
	}
	sawOK := false
	for _, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %q is not JSON: %v", line, err)
		}
		if rec["trace_id"] != "t-unit" {
			t.Errorf("log line %q has trace_id %v, want t-unit", line, rec["trace_id"])
		}
		if rec["msg"] == "cell ok" {
			sawOK = true
		}
	}
	if !sawOK {
		t.Error(`no "cell ok" log record emitted`)
	}
}

// TestObsOffNeutral pins the default path: a runner with no registry and no
// logger produces a report without a metrics snapshot, and its canonical
// report is byte-identical to a fully instrumented runner's — observability
// must never change results.
func TestObsOffNeutral(t *testing.T) {
	b := benchNamed(t, "164gzip")
	configs := []RunConfig{BaselineConfig(), PaperConfig(core.MechSoftBound)}

	run := func(instrumented bool) *PerfReport {
		r := NewRunner()
		if instrumented {
			r.SetMetrics(obs.NewRegistry())
			lg, err := obs.NewLogger(&bytes.Buffer{}, "debug", "text")
			if err != nil {
				t.Fatal(err)
			}
			r.SetLogger(lg)
			r.SetTraceID(obs.NewTraceID())
		}
		for _, cfg := range configs {
			if _, err := r.Run(b, cfg); err != nil {
				t.Fatalf("instrumented=%v %s: %v", instrumented, cfg.Label, err)
			}
		}
		return r.PerfReport()
	}

	plain, instrumented := run(false), run(true)
	if plain.Metrics != nil {
		t.Error("PerfReport.Metrics must be nil without a registry")
	}
	a, err := json.Marshal(plain.Canonical())
	if err != nil {
		t.Fatal(err)
	}
	bts, err := json.Marshal(instrumented.Canonical())
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(bts) {
		t.Errorf("canonical reports differ with observability on:\noff: %s\non:  %s", a, bts)
	}
}

// TestPerfReportTiers pins the tier-attribution block of the perf report: a
// compiler-engine campaign embeds a TierTable whose buckets reconcile with
// its total, the labeled tier gauges agree with the table, Canonical strips
// the block (its counters are process-wide and cumulative, so resumed
// campaigns would diff), and the render names at least one function.
func TestPerfReportTiers(t *testing.T) {
	r := NewRunner()
	r.SetAxes(RunAxes{Engine: bytecode.EngineCompiler})
	reg := obs.NewRegistry()
	r.SetMetrics(reg)
	b := benchNamed(t, "164gzip")
	for _, cfg := range []RunConfig{BaselineConfig(), PaperConfig(core.MechSoftBound)} {
		if _, err := r.Run(b, cfg); err != nil {
			t.Fatalf("%s: %v", cfg.Label, err)
		}
	}

	rep := r.PerfReport()
	if rep.Tiers == nil {
		t.Fatal("compiler-engine report carries no tier table")
	}
	if rep.Tiers.TotalInstrs == 0 {
		t.Fatal("tier table has zero total instructions")
	}
	native := rep.Tiers.NativeInstrs()
	if got := native + rep.Tiers.InterpretedInstrs; got != rep.Tiers.TotalInstrs {
		t.Errorf("tier buckets sum to %d, total is %d (every instruction must land in exactly one tier)",
			got, rep.Tiers.TotalInstrs)
	}
	snap := rep.Metrics
	if snap == nil {
		t.Fatal("report carries no metrics snapshot")
	}
	for tier, want := range map[string]uint64{
		"native": native, "interpreted": rep.Tiers.InterpretedInstrs,
	} {
		p := snap.Find("mi_tier_instrs", map[string]string{"tier": tier})
		if p == nil {
			t.Errorf("snapshot has no mi_tier_instrs{tier=%q}", tier)
			continue
		}
		if uint64(p.Value) != want {
			t.Errorf("mi_tier_instrs{tier=%q} = %v, tier table says %d", tier, p.Value, want)
		}
	}

	if c := rep.Canonical(); c.Tiers != nil {
		t.Error("Canonical must strip the tier table")
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"tiers"`)) {
		t.Error("report JSON carries no tiers block")
	}
	var back PerfReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Tiers == nil || back.Tiers.TotalInstrs != rep.Tiers.TotalInstrs {
		t.Error("tier table does not round-trip through JSON")
	}
	out := rep.Tiers.Render()
	if !strings.Contains(out, "Execution tier attribution") {
		t.Errorf("render missing header:\n%s", out)
	}
	if len(rep.Tiers.Rows) > 0 && !strings.Contains(out, rep.Tiers.Rows[0].Func) {
		t.Errorf("render names no function:\n%s", out)
	}
}
