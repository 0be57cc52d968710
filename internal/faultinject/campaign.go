// Campaign driver: plans a deterministic set of faults per benchmark,
// builds each mutated variant from a pristine clone, replays it under both
// mechanisms, and aggregates the per-mechanism detection matrix. A variant
// that panics the VM, trips the memory budget, or corrupts itself only marks
// its own cell: the campaign always runs to completion.
package faultinject

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/spec"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// Expect is the outcome the paper's security analysis predicts for a
// (kind, mechanism) pair.
type Expect int

const (
	// ExpDetect: the mechanism reports a violation.
	ExpDetect Expect = iota
	// ExpMiss: a true violation passes undetected (a blind spot).
	ExpMiss
	// ExpFalsePos: benign behaviour is reported as a violation.
	ExpFalsePos
	// ExpPass: benign behaviour passes silently.
	ExpPass
	// ExpAny: the analysis makes no prediction (e.g. collateral damage of
	// an uninstrumented library write may or may not crash the program).
	ExpAny
)

// String names the expectation.
func (e Expect) String() string {
	switch e {
	case ExpDetect:
		return "detect"
	case ExpMiss:
		return "miss"
	case ExpFalsePos:
		return "falsepos"
	case ExpPass:
		return "pass"
	case ExpAny:
		return "any"
	}
	return fmt.Sprintf("expect(%d)", int(e))
}

// Expected returns the paper-predicted outcome for a fault kind under a
// mechanism (Section 6: Table 4's qualitative claims).
func Expected(k Kind, mech core.Mech) Expect {
	sb := mech == core.MechSoftBound
	switch k {
	case GEPOverflow, GEPUnderflow:
		return ExpDetect
	case GEPPadding, AllocShrink:
		// In-padding accesses are provably invisible to Low-Fat Pointers.
		if sb {
			return ExpDetect
		}
		return ExpMiss
	case LibcallLen:
		// Only the SoftBound wrappers see library-internal accesses; under
		// Low-Fat the corrupted write lands unchecked and may or may not
		// take the program down.
		if sb {
			return ExpDetect
		}
		return ExpAny
	case ObfStaleUpdate:
		// The integer re-store leaves SoftBound's metadata stale (wide);
		// Low-Fat re-derives bounds from the pointer value itself.
		if sb {
			return ExpMiss
		}
		return ExpDetect
	case ObfBenignInt, BytewiseCopy:
		if sb {
			return ExpFalsePos
		}
		return ExpPass
	}
	return ExpAny
}

// Outcome classifies what actually happened when a variant ran.
type Outcome int

const (
	// OutDetected: the mechanism reported a violation for a true fault.
	OutDetected Outcome = iota
	// OutMissed: a true fault ran to completion undetected.
	OutMissed
	// OutFalsePos: the mechanism reported a violation for benign code.
	OutFalsePos
	// OutPassed: benign code ran to completion unreported.
	OutPassed
	// OutCrashed: the variant failed for an unrelated reason (VM runtime
	// error, memory budget, nonzero exit, build failure).
	OutCrashed
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutDetected:
		return "detected"
	case OutMissed:
		return "missed"
	case OutFalsePos:
		return "falsepos"
	case OutPassed:
		return "passed"
	case OutCrashed:
		return "crashed"
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// Matches reports whether the outcome satisfies the expectation.
func (o Outcome) Matches(e Expect) bool {
	switch e {
	case ExpDetect:
		return o == OutDetected
	case ExpMiss:
		return o == OutMissed
	case ExpFalsePos:
		return o == OutFalsePos
	case ExpPass:
		return o == OutPassed
	}
	return true
}

// Options configures a campaign.
type Options struct {
	// Seed drives site selection; the same seed over the same benchmarks
	// yields an identical plan and, the VM being deterministic, an
	// identical matrix.
	Seed int64
	// PerKind is the number of faults planted per kind per benchmark
	// (default 1; fewer if the benchmark lacks eligible covered sites).
	PerKind int
	// Kinds are the fault classes to plant (default DefaultKinds()).
	Kinds []Kind
	// Benches are the targets (default spec.All()).
	Benches []*spec.Benchmark
	// MaxSteps caps each variant run; corrupted variants may loop
	// (default 1<<30).
	MaxSteps uint64
	// MemBudget caps each variant's materialized memory so a corrupted
	// length cannot exhaust the host (default 1 GiB; 0 keeps the default,
	// use NoBudget for genuinely unlimited runs).
	MemBudget uint64
	// NoBudget disables the memory budget entirely.
	NoBudget bool
	// Parallel is the worker count (default GOMAXPROCS, capped at 8).
	Parallel int
	// Engine selects the execution engine for variant runs (default
	// bytecode.EngineTree). The coverage pass that picks fault sites always
	// runs on the reference interpreter, the only engine that records
	// coverage.
	Engine bytecode.EngineKind
	// Hoist enables loop-aware check hoisting (core.Config.OptHoist) in
	// every variant build, for differential security runs of the widened
	// range checks against the per-iteration baseline.
	Hoist bool
}

func (o Options) withDefaults() Options {
	if o.PerKind <= 0 {
		o.PerKind = 1
	}
	if len(o.Kinds) == 0 {
		o.Kinds = DefaultKinds()
	}
	if len(o.Benches) == 0 {
		o.Benches = spec.All()
	}
	if o.MaxSteps == 0 {
		o.MaxSteps = 1 << 30
	}
	if o.MemBudget == 0 {
		o.MemBudget = 1 << 30
	}
	if o.NoBudget {
		o.MemBudget = 0
	}
	if o.Parallel <= 0 {
		o.Parallel = runtime.GOMAXPROCS(0)
		if o.Parallel > 8 {
			o.Parallel = 8
		}
	}
	return o
}

// Mechs are the instrumentations the campaign replays each variant under.
var Mechs = []core.Mech{core.MechSoftBound, core.MechLowFat}

// VariantResult is the outcome of one fault under one mechanism.
type VariantResult struct {
	Fault   Fault
	Mech    core.Mech
	Expect  Expect
	Outcome Outcome
	// Detail carries the violation or error text, if any.
	Detail string
	// ExpectedAlloc is the allocation-site ID the instrumenter assigned to
	// the faulted object (0 when the fault's base is not an allocation).
	ExpectedAlloc int32
	// ReportedAlloc is the allocation site the violation report attributed
	// the faulting pointer to (0 when there was no report or no resolution).
	ReportedAlloc int32
	// Attributed reports whether the violation report named the faulted
	// allocation site (only meaningful for detected faults).
	Attributed bool
	// Report is the structured forensic report of the violation, if any.
	Report *telemetry.ViolationReport
}

// Report is the campaign's aggregate result.
type Report struct {
	Seed    int64
	Results []VariantResult
	// Failures records benchmark-level problems (compile or coverage-run
	// errors) that prevented planting; the campaign proceeds without
	// those benchmarks.
	Failures []string
}

// Run executes the campaign. It never fails as a whole: per-benchmark and
// per-variant problems are recorded in the report.
func Run(o Options) *Report {
	o = o.withDefaults()
	rep := &Report{Seed: o.Seed}

	type benchPlan struct {
		pristine *ir.Module
		faults   []Fault
		err      error
	}
	plans := make([]benchPlan, len(o.Benches))
	sem := make(chan struct{}, o.Parallel)
	var wg sync.WaitGroup
	for i, b := range o.Benches {
		wg.Add(1)
		go func(i int, b *spec.Benchmark) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			p := &plans[i]
			defer func() {
				if r := recover(); r != nil {
					p.err = fmt.Errorf("planning panicked: %v", r)
				}
			}()
			p.pristine, p.faults, p.err = planBench(b, o)
		}(i, b)
	}
	wg.Wait()

	type job struct {
		plan  *benchPlan
		fault Fault
		mech  core.Mech
	}
	var jobs []job
	for i, b := range o.Benches {
		if plans[i].err != nil {
			rep.Failures = append(rep.Failures, fmt.Sprintf("%s: %v", b.Name, plans[i].err))
			continue
		}
		for _, f := range plans[i].faults {
			for _, mech := range Mechs {
				jobs = append(jobs, job{plan: &plans[i], fault: f, mech: mech})
			}
		}
	}

	rep.Results = make([]VariantResult, len(jobs))
	for ji, j := range jobs {
		wg.Add(1)
		go func(ji int, j job) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			rep.Results[ji] = runVariant(j.plan.pristine, j.fault, j.mech, o)
		}(ji, j)
	}
	wg.Wait()

	// Attribution validation: every detected (non-benign) fault whose base
	// is a registered allocation must carry a report naming that allocation
	// site. A mismatch is a campaign failure, not just a curiosity — it
	// means the forensics pointed an investigator at the wrong object.
	for _, vr := range rep.Results {
		if vr.Outcome != OutDetected || vr.Fault.Benign || vr.ExpectedAlloc == 0 {
			continue
		}
		if !vr.Attributed {
			rep.Failures = append(rep.Failures, fmt.Sprintf(
				"attribution: %s under %s: expected allocation site #%d, report named #%d",
				vr.Fault, vr.Mech, vr.ExpectedAlloc, vr.ReportedAlloc))
		}
	}
	return rep
}

// planBench compiles the benchmark, runs it once uninstrumented with
// instruction coverage, and picks fault sites that the run actually executes
// (a fault at dead code would prove nothing).
func planBench(b *spec.Benchmark, o Options) (*ir.Module, []Fault, error) {
	pristine, err := b.Compile()
	if err != nil {
		return nil, nil, err
	}
	cov := ir.CloneModule(pristine)
	var sites []*site
	opt.RunPipeline(cov, opt.EPVectorizerStart, func(mod *ir.Module) {
		sites = enumerateSites(mod)
	}, opt.PipelineOptions{Level: 3})

	cover := make(map[*ir.Instr]bool)
	machine, err := vm.New(cov, vm.Options{
		MaxSteps: o.MaxSteps, MemBudget: o.MemBudget, CoverInstrs: cover,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("coverage vm: %w", err)
	}
	code, err := machine.Run()
	if err != nil {
		return nil, nil, fmt.Errorf("coverage run: %w", err)
	}
	if code != 0 {
		return nil, nil, fmt.Errorf("coverage run exited with code %d", code)
	}

	var covered []*site
	for _, s := range sites {
		if cover[s.instr] {
			covered = append(covered, s)
		}
	}

	// The per-benchmark stream makes the plan independent of the benchmark
	// list the campaign happens to run with.
	h := fnv.New64a()
	h.Write([]byte(b.Name))
	rng := rand.New(rand.NewSource(o.Seed ^ int64(h.Sum64())))

	var faults []Fault
	for _, k := range o.Kinds {
		var elig []*site
		for _, s := range covered {
			if eligible(s, k) {
				elig = append(elig, s)
			}
		}
		rng.Shuffle(len(elig), func(i, j int) { elig[i], elig[j] = elig[j], elig[i] })
		n := o.PerKind
		if n > len(elig) {
			n = len(elig)
		}
		for _, s := range elig[:n] {
			faults = append(faults, makeFault(b.Name, k, s))
		}
	}
	return pristine, faults, nil
}

// BuildVariant clones the pristine module, runs the optimization pipeline
// with a hook that plants the fault and instruments under the mechanism's
// paper configuration (plus check hoisting when hoist is set), and returns
// the executable variant.
func BuildVariant(pristine *ir.Module, f Fault, mech core.Mech, hoist bool) (*ir.Module, error) {
	m, _, _, err := BuildVariantForensic(pristine, f, mech, hoist)
	return m, err
}

// BuildVariantForensic is BuildVariant plus the forensic context the
// campaign's attribution validation needs: the instrumentation stats (whose
// Sites/AllocSites tables resolve the IDs in a violation report) and the
// allocation-site ID assigned to the faulted object (0 when the fault's base
// is not an allocation the instrumenter registered).
func BuildVariantForensic(pristine *ir.Module, f Fault, mech core.Mech, hoist bool) (*ir.Module, *core.Stats, int32, error) {
	m := ir.CloneModule(pristine)
	cfg := core.PaperSoftBound()
	if mech == core.MechLowFat {
		cfg = core.PaperLowFat()
	}
	cfg.OptDominance = true
	cfg.OptHoist = hoist

	var hookErr error
	var istats *core.Stats
	var expected int32
	hook := func(mod *ir.Module) {
		s := findSite(enumerateSites(mod), f.Site)
		if s == nil {
			hookErr = fmt.Errorf("site %s not found", f.Site)
			return
		}
		if f.Kind.postInstrument() {
			if istats, hookErr = core.Instrument(mod, cfg); hookErr != nil {
				return
			}
			hookErr = applyFault(s, f)
		} else {
			if hookErr = applyFault(s, f); hookErr != nil {
				return
			}
			istats, hookErr = core.Instrument(mod, cfg)
		}
		// The instrumenter has assigned allocation-site IDs by now (in both
		// orderings), so the faulted object's base carries the ID the
		// violation report is expected to name.
		switch base := s.base.(type) {
		case *ir.Global:
			expected = base.AllocSite
		case *ir.Instr:
			expected = base.AllocSite
		}
	}
	opt.RunPipeline(m, opt.EPVectorizerStart, hook, opt.PipelineOptions{Level: 3})
	if hookErr != nil {
		return nil, nil, 0, hookErr
	}
	return m, istats, expected, nil
}

// runVariant builds and executes one variant, classifying the result. Any
// panic along the way becomes an OutCrashed cell.
func runVariant(pristine *ir.Module, f Fault, mech core.Mech, o Options) (vr VariantResult) {
	vr = VariantResult{Fault: f, Mech: mech, Expect: Expected(f.Kind, mech)}
	defer func() {
		if p := recover(); p != nil {
			vr.Outcome = OutCrashed
			vr.Detail = fmt.Sprintf("panic: %v", p)
		}
	}()

	m, istats, expected, err := BuildVariantForensic(pristine, f, mech, o.Hoist)
	if err != nil {
		vr.Outcome = OutCrashed
		vr.Detail = "build: " + err.Error()
		return
	}
	vr.ExpectedAlloc = expected

	// Forensics is always on in the campaign: every detected fault must
	// carry a report that names the faulted allocation site (validated by
	// Run), and Stats/verdicts are bit-identical with forensics on or off.
	vopts := vm.Options{MaxSteps: o.MaxSteps, MemBudget: o.MemBudget, Forensics: true}
	if istats != nil {
		vopts.Sites = istats.Sites
		vopts.AllocSites = istats.AllocSites
	}
	switch mech {
	case core.MechSoftBound:
		vopts.Mechanism = vm.MechSoftBound
		// The campaign measures security, so the wrapper checks the paper
		// disables for runtime comparability are on (Section 5.1.2).
		vopts.SBCheckWrappers = true
	case core.MechLowFat:
		vopts.Mechanism = vm.MechLowFat
		vopts.LowFatHeap = true
		vopts.LowFatStack = true
		vopts.LowFatGlobals = true
	}
	machine, err := vm.New(m, vopts)
	if err != nil {
		vr.Outcome = OutCrashed
		vr.Detail = "vm: " + err.Error()
		return
	}
	code, rerr := bytecode.RunOn(o.Engine, machine)

	var viol *vm.ViolationError
	switch {
	case errors.As(rerr, &viol):
		if f.Benign {
			vr.Outcome = OutFalsePos
		} else {
			vr.Outcome = OutDetected
		}
		vr.Detail = viol.Error()
		vr.Report = viol.Report
		if viol.Report != nil && viol.Report.Alloc != nil {
			vr.ReportedAlloc = viol.Report.Alloc.Site
		}
		vr.Attributed = vr.ReportedAlloc != 0 && vr.ReportedAlloc == vr.ExpectedAlloc
	case rerr != nil:
		vr.Outcome = OutCrashed
		vr.Detail = rerr.Error()
	case code != 0:
		vr.Outcome = OutCrashed
		vr.Detail = fmt.Sprintf("exit code %d", code)
	default:
		if f.Benign {
			vr.Outcome = OutPassed
		} else {
			vr.Outcome = OutMissed
		}
	}
	return
}

// Cell aggregates outcomes for one (mechanism, kind) pair.
type Cell struct {
	Planted  int
	Detected int
	Missed   int
	FalsePos int
	Passed   int
	Crashed  int
	// Matched counts results consistent with the paper's prediction.
	Matched int
}

func (c *Cell) add(vr VariantResult) {
	c.Planted++
	switch vr.Outcome {
	case OutDetected:
		c.Detected++
	case OutMissed:
		c.Missed++
	case OutFalsePos:
		c.FalsePos++
	case OutPassed:
		c.Passed++
	case OutCrashed:
		c.Crashed++
	}
	if vr.Outcome.Matches(vr.Expect) {
		c.Matched++
	}
}

// Matrix aggregates the report into per-(mechanism, kind) cells.
func (r *Report) Matrix() map[core.Mech]map[Kind]*Cell {
	mx := make(map[core.Mech]map[Kind]*Cell)
	for _, mech := range Mechs {
		mx[mech] = make(map[Kind]*Cell)
	}
	for _, vr := range r.Results {
		cell := mx[vr.Mech][vr.Fault.Kind]
		if cell == nil {
			cell = &Cell{}
			mx[vr.Mech][vr.Fault.Kind] = cell
		}
		cell.add(vr)
	}
	return mx
}

// Unexpected returns the results that contradict the paper's predictions.
func (r *Report) Unexpected() []VariantResult {
	var out []VariantResult
	for _, vr := range r.Results {
		if !vr.Outcome.Matches(vr.Expect) {
			out = append(out, vr)
		}
	}
	return out
}

// Cell lookup helper for tests: the aggregate cell for (mech, kind).
func (r *Report) Cell(mech core.Mech, k Kind) Cell {
	var c Cell
	for _, vr := range r.Results {
		if vr.Mech == mech && vr.Fault.Kind == k {
			c.add(vr)
		}
	}
	return c
}

// Render formats the detection matrix like the paper's tables: one row per
// fault kind, one column group per mechanism, plus the predicted outcome so
// blind spots read directly off the table.
func (r *Report) Render() string {
	var sb strings.Builder
	benches := map[string]bool{}
	for _, vr := range r.Results {
		benches[vr.Fault.Bench] = true
	}
	fmt.Fprintf(&sb, "Fault-injection campaign: seed %d, %d variants over %d benchmarks\n",
		r.Seed, len(r.Results), len(benches))
	fmt.Fprintf(&sb, "ground truth: violation kinds should be detected, benign kinds should pass\n\n")

	mx := r.Matrix()
	var kinds []Kind
	seen := map[Kind]bool{}
	for _, vr := range r.Results {
		if !seen[vr.Fault.Kind] {
			seen[vr.Fault.Kind] = true
			kinds = append(kinds, vr.Fault.Kind)
		}
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })

	fmt.Fprintf(&sb, "%-14s %-9s", "kind", "truth")
	for _, mech := range Mechs {
		fmt.Fprintf(&sb, " | %-9s det miss  fp pass crsh  ok", mech)
	}
	sb.WriteString("\n")
	for _, k := range kinds {
		truth := "violation"
		if k.Benign() {
			truth = "benign"
		}
		fmt.Fprintf(&sb, "%-14s %-9s", k, truth)
		for _, mech := range Mechs {
			c := mx[mech][k]
			if c == nil {
				c = &Cell{}
			}
			fmt.Fprintf(&sb, " | %-9s %3d  %3d %3d  %3d  %3d %3d",
				"exp:"+Expected(k, mech).String(),
				c.Detected, c.Missed, c.FalsePos, c.Passed, c.Crashed, c.Matched)
		}
		sb.WriteString("\n")
	}

	if un := r.Unexpected(); len(un) > 0 {
		fmt.Fprintf(&sb, "\n%d results contradict the paper's predictions:\n", len(un))
		for _, vr := range un {
			fmt.Fprintf(&sb, "  %s under %s: expected %s, got %s (%s)\n",
				vr.Fault, vr.Mech, vr.Expect, vr.Outcome, vr.Detail)
		}
	}
	for _, f := range r.Failures {
		fmt.Fprintf(&sb, "\nFAILED: %s\n", f)
	}
	return sb.String()
}
