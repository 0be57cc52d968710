package bytecode_test

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/spec"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// diffEngines are the engines the differential tests sweep against the tree
// reference: the plain bytecode tier and the optimizing compiler tier.
func diffEngines() []bytecode.EngineKind {
	return []bytecode.EngineKind{bytecode.EngineBytecode, bytecode.EngineCompiler}
}

// diffConfigs are the execution configurations the differential test sweeps:
// the -O3 baseline and both instrumented paper configurations.
func diffConfigs() []harness.RunConfig {
	return []harness.RunConfig{
		harness.BaselineConfig(),
		harness.PaperConfig(core.MechSoftBound),
		harness.PaperConfig(core.MechLowFat),
		harness.HoistConfig(core.MechSoftBound),
		harness.HoistConfig(core.MechLowFat),
	}
}

// prepare compiles and instruments one (benchmark, config) module. The
// returned stats are nil for uninstrumented configurations.
func prepare(t *testing.T, b *spec.Benchmark, cfg harness.RunConfig) (*ir.Module, vm.Options, *core.Stats) {
	t.Helper()
	m, err := b.Compile()
	if err != nil {
		t.Fatalf("compile %s: %v", b.Name, err)
	}
	return instrumentModule(t, b.Name, ir.CloneModule(m), cfg)
}

// prepareSource is prepare for an ad-hoc C program instead of a spec
// benchmark.
func prepareSource(t *testing.T, name, code string, cfg harness.RunConfig) (*ir.Module, vm.Options, *core.Stats) {
	t.Helper()
	m, err := cc.Compile(name, cc.Source{Name: name + ".c", Code: code})
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return instrumentModule(t, name, m, cfg)
}

func instrumentModule(t testing.TB, name string, m *ir.Module, cfg harness.RunConfig) (*ir.Module, vm.Options, *core.Stats) {
	t.Helper()
	var stats *core.Stats
	var hook func(*ir.Module)
	if cfg.Instrument {
		hook = func(mod *ir.Module) {
			s, ierr := core.Instrument(mod, cfg.Core)
			if ierr != nil {
				t.Fatalf("instrument %s: %v", name, ierr)
			}
			stats = s
		}
	}
	opt.RunPipeline(m, cfg.EP, hook, opt.PipelineOptions{Level: cfg.OptLevel})
	vopts := vm.Options{}
	if cfg.Instrument {
		switch cfg.Core.Mechanism {
		case core.MechSoftBound:
			vopts.Mechanism = vm.MechSoftBound
		case core.MechLowFat:
			vopts.Mechanism = vm.MechLowFat
			vopts.LowFatHeap = true
			vopts.LowFatStack = true
			vopts.LowFatGlobals = true
		}
	}
	return m, vopts, stats
}

type runOutcome struct {
	code   int32
	output string
	stats  vm.Stats
	sites  []vm.SiteCount
	err    error
}

func runUnder(t *testing.T, kind bytecode.EngineKind, m *ir.Module, vopts vm.Options) runOutcome {
	t.Helper()
	machine, err := vm.New(m, vopts)
	if err != nil {
		t.Fatalf("vm.New: %v", err)
	}
	code, rerr := bytecode.RunOn(kind, machine)
	return runOutcome{code: code, output: machine.Output(), stats: machine.Stats,
		sites: machine.SiteProfile(), err: rerr}
}

// describeErr classifies an execution error for equivalence comparison:
// violations must agree on every structured field, runtime errors on the
// message (backtraces can differ in synthetic-frame detail).
func describeErr(err error) string {
	if err == nil {
		return "ok"
	}
	var ve *vm.ViolationError
	if errors.As(err, &ve) {
		return fmt.Sprintf("violation|%s|%s|%#x|%s", ve.Mechanism, ve.Kind, ve.Ptr, ve.Detail)
	}
	var re *vm.RuntimeError
	if errors.As(err, &re) {
		return "runtime|" + re.Msg
	}
	return "error|" + err.Error()
}

// TestDifferentialSpec runs every spec benchmark under baseline, SoftBound
// and Low-Fat configurations on all three engines and requires identical
// exit codes, outputs, error verdicts and full execution statistics.
func TestDifferentialSpec(t *testing.T) {
	for _, b := range spec.All() {
		for _, cfg := range diffConfigs() {
			t.Run(b.Name+"/"+cfg.Label, func(t *testing.T) {
				m, vopts, _ := prepare(t, b, cfg)
				tree := runUnder(t, bytecode.EngineTree, m, vopts)
				for _, kind := range diffEngines() {
					bc := runUnder(t, kind, m, vopts)
					if tree.code != bc.code {
						t.Errorf("exit code: tree=%d %v=%d", tree.code, kind, bc.code)
					}
					if tree.output != bc.output {
						t.Errorf("output differs:\ntree: %q\n%v: %q", tree.output, kind, bc.output)
					}
					if te, be := describeErr(tree.err), describeErr(bc.err); te != be {
						t.Errorf("verdict: tree=%s %v=%s", te, kind, be)
					}
					if tree.stats != bc.stats {
						t.Errorf("stats differ:\ntree: %+v\n%v: %+v", tree.stats, kind, bc.stats)
					}
				}
			})
		}
	}
}

// TestDifferentialSiteProfile runs every spec benchmark under both
// instrumented configurations with site profiling enabled and requires:
// (1) both engines produce identical per-site profiles, (2) the per-site
// sums reproduce the aggregate statistics exactly, and (3) every site that
// executed resolves to a C source location.
func TestDifferentialSiteProfile(t *testing.T) {
	for _, b := range spec.All() {
		for _, cfg := range diffConfigs()[1:] {
			t.Run(b.Name+"/"+cfg.Label, func(t *testing.T) {
				m, vopts, stats := prepare(t, b, cfg)
				if stats == nil || stats.Sites == nil {
					t.Fatal("instrumentation produced no site table")
				}
				vopts.SiteProfile = true
				tree := runUnder(t, bytecode.EngineTree, m, vopts)
				for _, kind := range diffEngines() {
					bc := runUnder(t, kind, m, vopts)
					if len(tree.sites) != len(bc.sites) {
						t.Fatalf("profile length: tree=%d %v=%d", len(tree.sites), kind, len(bc.sites))
					}
					for id := range tree.sites {
						if tree.sites[id] != bc.sites[id] {
							t.Errorf("site %d: tree=%+v %v=%+v", id, tree.sites[id], kind, bc.sites[id])
						}
					}
				}
				cm := vm.DefaultCostModel()
				var checks, wide, inv, meta, rng, rngWide uint64
				for id := 1; id < len(tree.sites); id++ {
					sc := tree.sites[id]
					s := stats.Sites.Get(int32(id))
					if s == nil {
						t.Fatalf("site %d executed but is missing from the registry", id)
					}
					if sc.Execs > 0 && s.Loc.IsZero() {
						t.Errorf("site %d (%s in %s) executed %d times but has no source location",
							id, s.Kind, s.Func, sc.Execs)
					}
					if s.Status != "" && sc.Execs > 0 {
						t.Errorf("site %d is %s (by %d) but executed %d times",
							id, s.Status, s.By, sc.Execs)
					}
					var unit uint64
					switch s.Kind {
					case "check":
						checks += sc.Execs
						wide += sc.Wide
						unit = cm.SBCheck
						if s.Mech == "lowfat" {
							unit = cm.LFCheck
						}
					case "invariant":
						inv += sc.Execs
						unit = cm.LFCheck
					case "metastore":
						meta += sc.Execs
						unit = cm.SBMetaStore
					case "rangecheck":
						rng += sc.Execs
						rngWide += sc.Wide
						unit = cm.SBCheck
						if s.Mech == "lowfat" {
							unit = cm.LFCheck
						}
					}
					if sc.Cost != sc.Execs*unit {
						t.Errorf("site %d (%s): cost %d != execs %d x unit %d",
							id, s.Kind, sc.Cost, sc.Execs, unit)
					}
				}
				st := tree.stats
				if checks != st.Checks || wide != st.WideChecks || inv != st.InvariantChecks {
					t.Errorf("per-site sums diverge from aggregates:\n"+
						"sums:       checks=%d wide=%d invariant=%d\n"+
						"aggregates: checks=%d wide=%d invariant=%d",
						checks, wide, inv, st.Checks, st.WideChecks, st.InvariantChecks)
				}
				if rng != st.RangeChecks || rngWide != st.WideRangeChecks {
					t.Errorf("per-site range-check sums diverge from aggregates: "+
						"sums rng=%d wide=%d, aggregates rng=%d wide=%d",
						rng, rngWide, st.RangeChecks, st.WideRangeChecks)
				}
				// Metadata stores from the memcpy/memmove wrappers (the runtime's
				// copy_metadata walk) have no static site, so the sited sum is a
				// lower bound on the aggregate.
				if meta > st.MetaStores {
					t.Errorf("sited metastores %d exceed aggregate %d", meta, st.MetaStores)
				}
			})
		}
	}
}

// TestProfiledNativeEngages pins the guarantee behind the site-profile sweep
// above: a site-profiled compiler-tier run actually retires instructions in
// native code (the lowering policy no longer disqualifies SiteProfile), so
// the bit-identical profiles cover the native tier rather than holding
// vacuously on the bytecode interpreter.
func TestProfiledNativeEngages(t *testing.T) {
	if !bytecode.NativeAvailable() {
		t.Skip("native tier disabled on this platform")
	}
	b := spec.All()[0]
	m, vopts, _ := prepare(t, b, harness.PaperConfig(core.MechSoftBound))
	vopts.SiteProfile = true
	before, _ := bytecode.TierStats()
	entries := func(rows []bytecode.TierFnStats) (n, native uint64) {
		for _, r := range rows {
			n += r.NativeEntries
			native += r.NativeInstrs
		}
		return
	}
	e0, n0 := entries(before)
	failures0 := bytecode.NativeStats().Failures
	runUnder(t, bytecode.EngineCompiler, m, vopts)
	after, _ := bytecode.TierStats()
	e1, n1 := entries(after)
	if bytecode.NativeStats().Failures > failures0 {
		t.Skipf("native build unavailable in this environment (failures %d -> %d)",
			failures0, bytecode.NativeStats().Failures)
	}
	if e1 == e0 || n1 == n0 {
		t.Fatalf("profiled compiler run retired no native code: entries %d -> %d, native instrs %d -> %d",
			e0, e1, n0, n1)
	}
	t.Logf("profiled native execution: %d entries, %d native instrs", e1-e0, n1-n0)
}

// TestEngineRefusesCoverage: only the reference interpreter records
// instruction coverage (the fault campaign's site-selection input), so the
// bytecode engines must refuse a VM that asks for it rather than run
// without marking anything.
func TestEngineRefusesCoverage(t *testing.T) {
	b := spec.All()[0]
	cfg := harness.PaperConfig(core.MechSoftBound)
	m, vopts, _ := prepare(t, b, cfg)
	vopts.CoverInstrs = make(map[*ir.Instr]bool)
	for _, kind := range diffEngines() {
		machine, err := vm.New(m, vopts)
		if err != nil {
			t.Fatalf("vm.New: %v", err)
		}
		if _, err := bytecode.RunOn(kind, machine); err == nil || !strings.Contains(err.Error(), "coverage") {
			t.Errorf("%v accepted a coverage VM: err=%v", kind, err)
		}
		if machine.Stats.Instrs != 0 || len(vopts.CoverInstrs) != 0 {
			t.Errorf("%v ran the program: instrs=%d covered=%d", kind, machine.Stats.Instrs, len(vopts.CoverInstrs))
		}
	}
}

// TestDifferentialFaultMatrix runs a fixed-seed slice of the fault-injection
// campaign under both engines and requires identical per-variant outcomes.
func TestDifferentialFaultMatrix(t *testing.T) {
	benches := spec.All()[:2]
	run := func(kind bytecode.EngineKind) *faultinject.Report {
		return faultinject.Run(faultinject.Options{Seed: 7, Benches: benches, Engine: kind})
	}
	tree := run(bytecode.EngineTree)
	for _, kind := range diffEngines() {
		bc := run(kind)
		if len(tree.Results) != len(bc.Results) {
			t.Fatalf("result count: tree=%d %v=%d", len(tree.Results), kind, len(bc.Results))
		}
		for i := range tree.Results {
			tr, br := tree.Results[i], bc.Results[i]
			if tr.Fault.Kind != br.Fault.Kind || tr.Mech != br.Mech {
				t.Fatalf("variant %d identity mismatch: tree=%v/%v %v=%v/%v",
					i, tr.Fault.Kind, tr.Mech, kind, br.Fault.Kind, br.Mech)
			}
			if tr.Outcome != br.Outcome {
				t.Errorf("variant %d (%s, %v, %v): outcome tree=%v %v=%v",
					i, tr.Fault.Bench, tr.Fault.Kind, tr.Mech, tr.Outcome, kind, br.Outcome)
			}
		}
	}
}

// TestDifferentialFaultMatrixHoist replays the fixed-seed fault-matrix slice
// with check hoisting enabled and requires (1) both engines agree on every
// outcome and (2) hoisting changes no verdict relative to the per-iteration
// baseline: a widened range check may fire earlier, but never in a different
// class (detected stays detected, benign stays benign).
func TestDifferentialFaultMatrixHoist(t *testing.T) {
	benches := spec.All()[:2]
	run := func(kind bytecode.EngineKind, hoist bool) *faultinject.Report {
		return faultinject.Run(faultinject.Options{Seed: 7, Benches: benches, Engine: kind, Hoist: hoist})
	}
	base := run(bytecode.EngineTree, false)
	tree := run(bytecode.EngineTree, true)
	if len(tree.Results) != len(base.Results) {
		t.Fatalf("result count: base=%d tree=%d", len(base.Results), len(tree.Results))
	}
	for i := range tree.Results {
		br, tr := base.Results[i], tree.Results[i]
		if tr.Fault.Kind != br.Fault.Kind || tr.Mech != br.Mech {
			t.Fatalf("variant %d identity mismatch across configurations", i)
		}
		if tr.Outcome != br.Outcome {
			t.Errorf("variant %d (%s, %v, %v): hoisting changed the verdict: base=%v hoist=%v",
				i, tr.Fault.Bench, tr.Fault.Kind, tr.Mech, br.Outcome, tr.Outcome)
		}
	}
	for _, kind := range diffEngines() {
		bc := run(kind, true)
		if len(tree.Results) != len(bc.Results) {
			t.Fatalf("result count: tree=%d %v=%d", len(tree.Results), kind, len(bc.Results))
		}
		for i := range tree.Results {
			tr, cr := tree.Results[i], bc.Results[i]
			if tr.Outcome != cr.Outcome {
				t.Errorf("variant %d (%s, %v, %v): hoisted outcome tree=%v %v=%v",
					i, tr.Fault.Bench, tr.Fault.Kind, tr.Mech, tr.Outcome, kind, cr.Outcome)
			}
		}
	}
}

// TestBytecodeMaxSteps verifies the engine enforces the step budget with the
// interpreter's exact error.
func TestBytecodeMaxSteps(t *testing.T) {
	m, err := cc.Compile("t", cc.Source{Name: "t.c", Code: `
int main() {
  long i = 0;
  while (1) { i++; }
  return (int)i;
}
`})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	for _, kind := range []bytecode.EngineKind{bytecode.EngineTree, bytecode.EngineBytecode, bytecode.EngineCompiler} {
		machine, err := vm.New(m, vm.Options{MaxSteps: 10000})
		if err != nil {
			t.Fatalf("vm.New: %v", err)
		}
		code, rerr := bytecode.RunOn(kind, machine)
		var re *vm.RuntimeError
		if !errors.As(rerr, &re) || re.Msg != "step limit exceeded" {
			t.Fatalf("%v: want step limit error, got code=%d err=%v", kind, code, rerr)
		}
		if machine.Stats.Instrs == 0 {
			t.Fatalf("%v: no instructions accounted before the limit", kind)
		}
	}
}

// TestBytecodeMemBudget verifies the engine surfaces the address-space
// budget error.
func TestBytecodeMemBudget(t *testing.T) {
	m, err := cc.Compile("t", cc.Source{Name: "t.c", Code: `
int main() {
  long i;
  for (i = 0; i < 1024; i++) {
    char *p = (char *)malloc(1 << 20);
    long j;
    for (j = 0; j < (1 << 20); j += 4096) p[j] = 1;
  }
  return 0;
}
`})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	for _, kind := range []bytecode.EngineKind{bytecode.EngineTree, bytecode.EngineBytecode, bytecode.EngineCompiler} {
		machine, err := vm.New(m, vm.Options{MemBudget: 64 << 20})
		if err != nil {
			t.Fatalf("vm.New: %v", err)
		}
		_, rerr := bytecode.RunOn(kind, machine)
		if rerr == nil {
			t.Fatalf("%v: expected an error under a 64 MiB budget", kind)
		}
		if got := rerr.Error(); !contains(got, "memory budget exceeded") {
			t.Fatalf("%v: want budget error, got %v", kind, rerr)
		}
	}
}

// reportOf extracts the forensic report a violating run must carry.
func reportOf(t *testing.T, kind bytecode.EngineKind, o runOutcome) *telemetry.ViolationReport {
	t.Helper()
	var ve *vm.ViolationError
	if !errors.As(o.err, &ve) {
		t.Fatalf("%v: expected a violation, got code=%d err=%v", kind, o.code, o.err)
	}
	if ve.Report == nil {
		t.Fatalf("%v: violation carried no forensic report", kind)
	}
	return ve.Report
}

// TestDifferentialForensicReports runs an out-of-bounds program under every
// instrumented configuration with forensics and site profiling both enabled
// and requires both engines to synthesize byte-identical violation reports
// (same rendered text, same JSON serialization, same flight-recorder tail)
// and identical site profiles. The report is derived
// entirely from VM state the engines already keep in lockstep (addresses,
// instruction counter, allocator snapshots), so any divergence here means an
// engine recorded an event the other did not.
func TestDifferentialForensicReports(t *testing.T) {
	const oob = `
int main() {
  int *a = (int *)malloc(4 * sizeof(int));
  int i;
  /* Runs far past the end: SoftBound fires at the first out-of-bounds
   * element, Low-Fat once the access leaves the region slot. */
  for (i = 0; i <= 1024; i++) a[i] = i;
  return a[0];
}
`
	for _, cfg := range diffConfigs()[1:] {
		t.Run(cfg.Label, func(t *testing.T) {
			m, vopts, stats := prepareSource(t, "oob", oob, cfg)
			if stats == nil || stats.AllocSites == nil {
				t.Fatal("instrumentation produced no allocation-site table")
			}
			vopts.Forensics = true
			vopts.SiteProfile = true
			vopts.Sites = stats.Sites
			vopts.AllocSites = stats.AllocSites
			tree := runUnder(t, bytecode.EngineTree, m, vopts)
			if len(tree.sites) < 2 {
				t.Fatal("forensic run carried no site profile")
			}
			tr := reportOf(t, bytecode.EngineTree, tree)
			tj, err := tr.JSON()
			if err != nil {
				t.Fatalf("tree report JSON: %v", err)
			}
			if tr.Alloc == nil || tr.Alloc.Site == 0 {
				t.Errorf("report did not attribute the violation to an allocation site: %+v", tr.Alloc)
			}
			if len(tr.Events) == 0 {
				t.Error("report carried no flight-recorder events")
			}
			for _, kind := range diffEngines() {
				bc := runUnder(t, kind, m, vopts)
				if te, be := describeErr(tree.err), describeErr(bc.err); te != be {
					t.Fatalf("verdict: tree=%s %v=%s", te, kind, be)
				}
				br := reportOf(t, kind, bc)
				if tr.Render() != br.Render() {
					t.Errorf("rendered reports differ:\n--- tree ---\n%s--- %v ---\n%s",
						tr.Render(), kind, br.Render())
				}
				bj, err := br.JSON()
				if err != nil {
					t.Fatalf("%v report JSON: %v", kind, err)
				}
				if string(tj) != string(bj) {
					t.Errorf("JSON reports differ:\n--- tree ---\n%s--- %v ---\n%s", tj, kind, bj)
				}
				if !slices.Equal(tree.sites, bc.sites) {
					t.Errorf("site profiles differ:\ntree: %+v\n%v: %+v", tree.sites, kind, bc.sites)
				}
			}
		})
	}
}

// TestDifferentialForensicCampaignReports replays the fixed-seed fault-matrix
// slice (the same one TestDifferentialFaultMatrix runs) and requires that
// every variant's violation report — synthesized with forensics always on
// inside the campaign — serializes identically under both engines, and that
// the attribution verdicts agree.
func TestDifferentialForensicCampaignReports(t *testing.T) {
	benches := spec.All()[:2]
	run := func(kind bytecode.EngineKind) *faultinject.Report {
		return faultinject.Run(faultinject.Options{Seed: 7, Benches: benches, Engine: kind})
	}
	tree := run(bytecode.EngineTree)
	for _, kind := range diffEngines() {
		bc := run(kind)
		if len(tree.Results) != len(bc.Results) {
			t.Fatalf("result count: tree=%d %v=%d", len(tree.Results), kind, len(bc.Results))
		}
		reports := 0
		for i := range tree.Results {
			tr, br := tree.Results[i], bc.Results[i]
			if (tr.Report == nil) != (br.Report == nil) {
				t.Errorf("variant %d (%s, %v): report presence tree=%t %v=%t",
					i, tr.Fault, tr.Mech, tr.Report != nil, kind, br.Report != nil)
				continue
			}
			if tr.ExpectedAlloc != br.ExpectedAlloc || tr.ReportedAlloc != br.ReportedAlloc ||
				tr.Attributed != br.Attributed {
				t.Errorf("variant %d (%s, %v): attribution tree=(%d->%d %t) %v=(%d->%d %t)",
					i, tr.Fault, tr.Mech,
					tr.ExpectedAlloc, tr.ReportedAlloc, tr.Attributed, kind,
					br.ExpectedAlloc, br.ReportedAlloc, br.Attributed)
			}
			if tr.Report == nil {
				continue
			}
			reports++
			tj, err := tr.Report.JSON()
			if err != nil {
				t.Fatalf("variant %d tree report JSON: %v", i, err)
			}
			bj, err := br.Report.JSON()
			if err != nil {
				t.Fatalf("variant %d %v report JSON: %v", i, kind, err)
			}
			if string(tj) != string(bj) {
				t.Errorf("variant %d (%s, %v): reports differ:\n--- tree ---\n%s--- %v ---\n%s",
					i, tr.Fault, tr.Mech, tj, kind, bj)
			}
		}
		if reports == 0 {
			t.Fatal("campaign slice produced no violation reports to compare")
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
