// Package harness drives the paper's experiments: it compiles each
// benchmark once, instruments clones of it under the configurations a table
// or figure requires, executes them on the VM, and reports overheads
// normalized to the -O3 baseline — the same normalization the paper uses
// ("1x" in Figures 9-13).
package harness

import (
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"time"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/resilience"
	"repro/internal/spec"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// RunConfig describes one execution configuration of a benchmark.
type RunConfig struct {
	// Label names the configuration in reports.
	Label string
	// Instrument enables memory-safety instrumentation; when false the
	// run is the plain -O3 baseline.
	Instrument bool
	// Core is the instrumentation configuration (mechanism, mode, flags).
	Core core.Config
	// EP is the pipeline extension point for the instrumentation hook.
	EP opt.ExtPoint
	// OptLevel is the optimization level (3 for all paper experiments).
	OptLevel int
}

// BaselineConfig is the uninstrumented -O3 reference.
func BaselineConfig() RunConfig {
	return RunConfig{Label: "baseline", OptLevel: 3}
}

// PaperConfig returns the configuration used for Figure 9: the paper's
// mechanism flags, full mode, dominance optimization on, instrumented at
// VectorizerStart.
func PaperConfig(mech core.Mech) RunConfig {
	cfg := core.PaperSoftBound()
	if mech == core.MechLowFat {
		cfg = core.PaperLowFat()
	}
	cfg.OptDominance = true
	return RunConfig{
		Label:      mech.String(),
		Instrument: true,
		Core:       cfg,
		EP:         opt.EPVectorizerStart,
		OptLevel:   3,
	}
}

// HoistConfig is PaperConfig plus loop-aware check hoisting (the
// induction-variable range-check optimization of opt.HoistChecks).
func HoistConfig(mech core.Mech) RunConfig {
	cfg := PaperConfig(mech)
	cfg.Core.OptHoist = true
	cfg.Label = mech.String() + "+hoist"
	return cfg
}

// Result is the outcome of one benchmark execution.
type Result struct {
	Bench  string
	Config RunConfig
	// Output is the program output (used to cross-check against the
	// baseline: instrumentation must not change program behaviour).
	Output string
	// Stats are the VM execution statistics; Stats.Cost is the dynamic
	// cost that stands in for execution time.
	Stats vm.Stats
	// InstrStats reports what the instrumentation did (nil for baseline).
	InstrStats *core.Stats
	// PipeStats reports compiler-side check elimination.
	PipeStats opt.PipelineStats
	// Wall is the wall-clock duration of the VM run itself (excluding
	// compilation and instrumentation).
	Wall time.Duration
	// SiteProfile is the per-check-site execution profile, indexed by
	// SiteID (nil unless the runner's site profiling is on). The matching
	// static site registry is InstrStats.Sites.
	SiteProfile []vm.SiteCount
	// Report is the structured forensic report of the violation that ended
	// the run (nil unless forensics is on and the run ended in a violation).
	Report *telemetry.ViolationReport
	// Err is non-nil if the run failed (e.g. a reported violation).
	Err error
	// Status classifies how the supervised cell ended (ok, retried,
	// timeout, oom, panic, failed, skipped).
	Status resilience.CellStatus
	// Attempts is the cell's per-attempt history (one entry per attempt,
	// including the successful one).
	Attempts []resilience.Attempt
	// Resumed marks results replayed from a checkpoint journal rather than
	// executed in this process.
	Resumed bool
	// rec, when non-nil, is the journaled PerfRecord this result was
	// resumed from; PerfReport emits it verbatim, so a resumed campaign's
	// report is byte-identical to the uninterrupted one.
	rec *PerfRecord
}

// Runner caches optimized benchmark modules and execution results, so that
// configurations share the pipeline work before their instrumentation point
// and figures sharing configurations (e.g. the baseline) reuse runs.
type Runner struct {
	mu       sync.Mutex
	prefixes map[prefixKey]*prefixEntry
	cache    map[string]*cacheEntry
	engine   bytecode.EngineKind
	par      int
	// siteProfile enables per-check-site counters (vm.Options.SiteProfile)
	// for subsequent runs; results are cached per setting.
	siteProfile bool
	// forensics enables violation forensics (vm.Options.Forensics) for
	// subsequent runs; results are cached per setting.
	forensics bool
	// cost overrides the VM cost model (nil = default); part of the cache
	// key, since it changes every dynamic statistic.
	cost *vm.CostModel
	// trace, when non-nil, receives pipeline/execution spans.
	trace *telemetry.Trace
	// log, when non-nil, receives structured per-cell records (start,
	// instrument, completion, retry, shed, resume) with bench/config/engine/
	// trace_id attributes on every record.
	log *slog.Logger
	// metrics, when non-nil, receives campaign counters, gauges and latency
	// histograms; PerfReport snapshots it.
	metrics *obs.Registry
	// traceID labels this campaign's log records and spans. mi-bench mints
	// one per campaign; the server overrides it per request via RunCtx.
	traceID string
	// pol configures cell supervision (deadline, retries, memory budget);
	// sup is built lazily from it on first admission. Configure before
	// running cells.
	pol resilience.Policy
	sup *resilience.Supervisor
	// journal, when non-nil, receives every completed cell (checkpointing);
	// resumed replays journaled cells instead of executing them.
	journal *resilience.Journal
	resumed map[string]*CellRecord
	// chaos injects operational faults into cell execution (chaos mode).
	chaos faultinject.ChaosPlan
	// hits/misses count result-cache outcomes: a miss executed the cell, a
	// hit was served an already-computed (or concurrently in-flight) result.
	// mi-serve's /statsz hit rate is built from these.
	hits, misses uint64
}

type cacheEntry struct {
	once sync.Once
	res  *Result
	err  error
}

// prefixKey identifies a memoized pipeline prefix: the benchmark, the
// extension point the prefix runs up to (opt.PrefixEnd) and the
// optimization level.
type prefixKey struct {
	bench string
	end   opt.ExtPoint
	level int
}

// prefixEntry memoizes one pipeline prefix. Like cacheEntry it is
// singleflight, but a computation that fails or panics leaves mod nil, so
// the next attempt recomputes it instead of inheriting the failure.
type prefixEntry struct {
	mu  sync.Mutex
	mod *ir.Module
}

// get returns a fresh clone of the memoized module, computing the module
// first if no earlier call has, and reports whether it was shared (computed
// by an earlier call).
func (e *prefixEntry) get(compute func() (*ir.Module, error)) (m *ir.Module, shared bool, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	shared = e.mod != nil
	if !shared {
		if e.mod, err = compute(); err != nil {
			return nil, false, err
		}
	}
	return ir.CloneModule(e.mod), shared, nil
}

// NewRunner returns an empty runner using the tree engine (the reference
// default; campaigns opt into bytecode via SetEngine).
func NewRunner() *Runner {
	return &Runner{
		prefixes: make(map[prefixKey]*prefixEntry),
		cache:    make(map[string]*cacheEntry),
	}
}

// SetEngine selects the execution engine for subsequent runs. Results are
// cached per engine, so switching mid-campaign is safe (if pointless).
func (r *Runner) SetEngine(k bytecode.EngineKind) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.engine = k
}

// Engine returns the selected execution engine.
func (r *Runner) Engine() bytecode.EngineKind {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.engine
}

// SetSiteProfile toggles per-check-site execution counters for subsequent
// runs. Profiled and unprofiled results are cached separately.
func (r *Runner) SetSiteProfile(on bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.siteProfile = on
}

// SetForensics toggles violation forensics (allocation-site tracking, the
// flight recorder, and structured violation reports) for subsequent runs.
// Forensic and plain results are cached separately.
func (r *Runner) SetForensics(on bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.forensics = on
}

// SetCostModel overrides the VM cost model for subsequent runs (nil restores
// the default). The model is part of the result-cache key.
func (r *Runner) SetCostModel(cm *vm.CostModel) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cost = cm
}

// SetTrace installs a span recorder for subsequent runs: each uncached cell
// records its pipeline stages and VM execution on its own track. Cached cells
// record nothing (they do no work).
func (r *Runner) SetTrace(t *telemetry.Trace) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.trace = t
}

// Trace returns the installed span recorder (nil if none; a nil Trace is a
// valid no-op recorder).
func (r *Runner) Trace() *telemetry.Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.trace
}

// Logger returns the installed structured logger (nil if none).
func (r *Runner) Logger() *slog.Logger {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.log
}

// SetLogger installs a structured logger for per-cell records (nil
// disables). Every record carries bench, config, engine and trace_id
// attributes; slog handlers serialize records, so concurrent -j workers
// never interleave within one record.
func (r *Runner) SetLogger(lg *slog.Logger) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.log = lg
}

// SetMetrics installs a metrics registry for campaign counters and latency
// histograms (nil disables — the default path records nothing). The registry
// is also wired into the journal and supervisor, whenever each exists.
func (r *Runner) SetMetrics(reg *obs.Registry) {
	r.mu.Lock()
	r.metrics = reg
	j, sup := r.journal, r.sup
	r.mu.Unlock()
	j.SetMetrics(reg)
	if sup != nil {
		sup.SetMetrics(reg)
	}
}

// Metrics returns the installed registry (nil if none).
func (r *Runner) Metrics() *obs.Registry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.metrics
}

// SetTraceID sets the campaign-wide trace ID attached to log records and
// spans when the caller does not pass a per-request one (RunCtx).
func (r *Runner) SetTraceID(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.traceID = id
}

// SetParallelism caps concurrent benchmark cells in figure sweeps (default
// 8; values below 1 reset to the default). Configure before running cells:
// it rebuilds the admission gate.
func (r *Runner) SetParallelism(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.par = n
	if r.pol.Parallel <= 0 {
		r.sup = nil
	}
}

// configKey identifies a configuration for result caching.
func configKey(cfg RunConfig) string {
	return fmt.Sprintf("i=%t|m=%d|mode=%d|dom=%t|hoist=%t|szw=%t|i2pw=%t|c2w=%t|ep=%d|O=%d",
		cfg.Instrument, cfg.Core.Mechanism, cfg.Core.Mode, cfg.Core.OptDominance,
		cfg.Core.OptHoist, cfg.Core.SBSizeZeroWideUpper, cfg.Core.SBIntToPtrWideBounds,
		cfg.Core.LFTransformCommonToWeak, cfg.EP, cfg.OptLevel)
}

// prefix returns a fresh clone of the benchmark's module after the
// pipeline stages that precede extension point end, memoized per
// prefixKey: the baseline and every configuration instrumenting at the same
// point share one frontend compile and one prefix run. The cell that
// computes the prefix records the stages' spans on its track; a cell that
// reuses it records one pipeline-prefix span marked shared.
func (r *Runner) prefix(b *spec.Benchmark, end opt.ExtPoint, level int, tr *telemetry.Trace, tid int) (*ir.Module, error) {
	key := prefixKey{bench: b.Name, end: end, level: level}
	r.mu.Lock()
	e, ok := r.prefixes[key]
	if !ok {
		e = &prefixEntry{}
		r.prefixes[key] = e
	}
	r.mu.Unlock()
	sp := tr.Begin("pipeline-prefix", tid)
	m, shared, err := e.get(func() (*ir.Module, error) {
		m, err := b.Compile()
		if err != nil {
			return nil, err
		}
		opt.RunPrefix(m, end, opt.PipelineOptions{Level: level, Trace: tr, TraceTID: tid})
		return m, nil
	})
	if shared {
		sp.Arg("shared", true)
		sp.End()
	}
	return m, err
}

// costKey fingerprints a cost model for result-cache keys: two runs under
// different models must never share a cached result.
func costKey(cm *vm.CostModel) string {
	if cm == nil {
		return "default"
	}
	return fmt.Sprintf("%+v", *cm)
}

// Axes snapshots the runner's default execution axes (as configured by
// SetEngine, SetSiteProfile, SetForensics and SetCostModel).
func (r *Runner) Axes() RunAxes {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RunAxes{Engine: r.engine, SiteProfile: r.siteProfile, Forensics: r.forensics, Cost: r.cost}
}

// Run executes one benchmark under one configuration and the runner's
// default axes, caching the result.
func (r *Runner) Run(b *spec.Benchmark, cfg RunConfig) (*Result, error) {
	res, _, err := r.RunCell(b, cfg, r.Axes())
	return res, err
}

// RunCtx carries per-request observability context into a cell run: the
// trace ID stamped on log records and spans, and the telemetry track the
// cell's spans should land on (0 = allocate a fresh track per cell). The
// zero value falls back to the runner's campaign-wide trace ID.
type RunCtx struct {
	TraceID string
	TID     int
}

// RunCell executes one cell under explicit axes with no per-request context;
// see RunCellCtx.
func (r *Runner) RunCell(b *spec.Benchmark, cfg RunConfig, ax RunAxes) (*Result, bool, error) {
	return r.RunCellCtx(b, cfg, ax, RunCtx{})
}

// RunCellCtx executes one cell under explicit axes, caching the result under
// its CacheKey and reporting whether it was served from cache. The cache is
// singleflight: concurrent calls with the same key compute the cell exactly
// once (the others count as hits and receive the same result). Explicit axes
// make RunCellCtx safe for callers that need different engines concurrently —
// the campaign server passes each request's axes rather than mutating
// runner state.
func (r *Runner) RunCellCtx(b *spec.Benchmark, cfg RunConfig, ax RunAxes, rc RunCtx) (*Result, bool, error) {
	key := ax.Key(b.Name, cfg).String()
	r.mu.Lock()
	reg := r.metrics
	e, ok := r.cache[key]
	if !ok {
		e = &cacheEntry{}
		r.cache[key] = e
	}
	r.mu.Unlock()
	reg.Counter("mi_cache_lookups_total", "Result-cache lookups (hits + misses).").Inc()
	executed := false
	e.once.Do(func() {
		executed = true
		e.res, e.err = r.supervise(b, cfg, ax.Engine, ax.SiteProfile, ax.Forensics, ax.Cost, key, rc)
	})
	r.mu.Lock()
	if executed {
		r.misses++
	} else {
		r.hits++
	}
	r.mu.Unlock()
	if executed {
		reg.Counter("mi_cache_misses_total", "Result-cache misses (the lookup executed its cell).").Inc()
	} else {
		reg.Counter("mi_cache_hits_total", "Result-cache hits (served an already-computed or in-flight result).").Inc()
	}
	return e.res, !executed, e.err
}

// CacheStats reports result-cache outcomes since the runner was created:
// misses executed their cell, hits were served a cached (or concurrently
// in-flight) result.
func (r *Runner) CacheStats() (hits, misses uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hits, r.misses
}

// panicError marks a recovered worker panic so the supervisor can classify
// it as StatusPanic and retry it.
type panicError struct{ msg string }

func (e *panicError) Error() string { return e.msg }

// runAttempt executes one supervised attempt at a cell: a fresh clone of
// the memoized pipeline prefix through the rest of the pipeline,
// instrumentation and VM, with the attempt's interrupt flag wired into the
// engines' step-count poll. The module is a new instance every attempt, so
// its program is compiled directly rather than through a program cache that
// could never hit and would only keep it alive.
func (r *Runner) runAttempt(b *spec.Benchmark, cfg RunConfig, engine bytecode.EngineKind, prof, forensics bool, cost *vm.CostModel, flag *vm.InterruptFlag, attempt int, rc RunCtx) (res *Result, err error) {
	// A panic anywhere in the pipeline, instrumentation or VM must not take
	// down the whole campaign: it becomes this run's failure.
	defer func() {
		if p := recover(); p != nil {
			if res == nil {
				res = &Result{Bench: b.Name, Config: cfg}
			}
			res.Err = &panicError{fmt.Sprintf("%s under %s panicked: %v", b.Name, cfg.Label, p)}
			err = nil
		}
	}()
	r.mu.Lock()
	tr := r.trace
	r.mu.Unlock()
	lg := r.cellLogger(b.Name, cfg.Label, engine, rc)

	if lg != nil {
		lg.Debug("cell start", "attempt", attempt+1)
	}

	res = &Result{Bench: b.Name, Config: cfg}

	// The server hands each cell the track it already opened (with the queue
	// wait on it); local runs open one track per cell.
	tid := rc.TID
	if tid == 0 && tr.Enabled() {
		tid = tr.Track(b.Name + "/" + cfg.Label)
	}

	m, err := r.compile(b, cfg, res, tr, tid, lg)
	if err != nil {
		return nil, err
	}

	vopts := vm.Options{SiteProfile: prof, Forensics: forensics, Cost: cost, Interrupt: flag}
	if forensics && res.InstrStats != nil {
		vopts.Sites = res.InstrStats.Sites
		vopts.AllocSites = res.InstrStats.AllocSites
	}
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
	machine, err := vm.New(m, vopts)
	if err != nil {
		return nil, err
	}
	sp := tr.Begin("execute:"+engine.String(), tid)
	if id := r.effectiveTraceID(rc); id != "" {
		sp.Arg("trace_id", id)
	}
	if attempt > 0 {
		sp.Arg("attempt", attempt+1)
	}
	start := time.Now()
	code, rerr := bytecode.RunOn(engine, machine)
	res.Wall = time.Since(start)
	sp.Arg("cost", machine.Stats.Cost)
	sp.Arg("checks", machine.Stats.Checks)
	sp.End()
	res.Output = machine.Output()
	res.Stats = machine.Stats
	if prof {
		res.SiteProfile = machine.SiteProfile()
	}
	if rerr != nil {
		res.Err = rerr
		var viol *vm.ViolationError
		if errors.As(rerr, &viol) {
			res.Report = viol.Report
		}
	} else if code != 0 {
		res.Err = fmt.Errorf("%s exited with code %d", b.Name, code)
	}
	if lg != nil {
		wallMS := float64(res.Wall.Microseconds()) / 1000
		if res.Err != nil {
			lg.Warn("cell failed", "wall_ms", wallMS, "err", res.Err.Error())
		} else {
			lg.Info("cell ok", "wall_ms", wallMS, "cost", res.Stats.Cost, "checks", res.Stats.Checks)
		}
	}
	return res, nil
}

// compile runs a cell's optimization pipeline: a clone of the memoized
// prefix, then the instrumentation hook (for instrumented configurations)
// and the remaining stages. It fills res.InstrStats and res.PipeStats and
// returns the final module.
func (r *Runner) compile(b *spec.Benchmark, cfg RunConfig, res *Result, tr *telemetry.Trace, tid int, lg *slog.Logger) (*ir.Module, error) {
	var hook func(*ir.Module)
	var err error
	if cfg.Instrument {
		hook = func(mod *ir.Module) {
			sp := tr.Begin("instrument:"+cfg.Core.Mechanism.String(), tid)
			s, ierr := core.Instrument(mod, cfg.Core)
			if ierr != nil {
				sp.End()
				err = fmt.Errorf("instrumenting %s: %w", b.Name, ierr)
				return
			}
			sp.Arg("checks_placed", s.ChecksPlaced)
			sp.Arg("checks_eliminated", s.Opt.ChecksEliminated)
			sp.Arg("checks_hoisted", s.Opt.ChecksHoisted)
			sp.Arg("sites", s.Sites.Len())
			sp.End()
			res.InstrStats = s
			if lg != nil {
				lg.Debug("cell instrumented",
					"checks_placed", s.ChecksPlaced,
					"checks_eliminated", s.Opt.ChecksEliminated,
					"checks_hoisted", s.Opt.ChecksHoisted,
					"sites", s.Sites.Len())
			}
		}
	}
	end := opt.PrefixEnd(cfg.EP, hook)
	m, err := r.prefix(b, end, cfg.OptLevel, tr, tid)
	if err != nil {
		return nil, err
	}
	opt.RunSuffix(m, end, hook, opt.PipelineOptions{Level: cfg.OptLevel, Stats: &res.PipeStats, Trace: tr, TraceTID: tid})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// cellLogger returns the structured logger with the cell's common attributes
// attached, or nil when logging is off.
func (r *Runner) cellLogger(bench, config string, engine bytecode.EngineKind, rc RunCtx) *slog.Logger {
	r.mu.Lock()
	lg := r.log
	r.mu.Unlock()
	if lg == nil {
		return nil
	}
	return lg.With("bench", bench, "config", config, "engine", engine.String(),
		"trace_id", r.effectiveTraceID(rc))
}

// effectiveTraceID resolves the trace ID for a cell run: the per-request one
// if set, else the campaign-wide one.
func (r *Runner) effectiveTraceID(rc RunCtx) string {
	if rc.TraceID != "" {
		return rc.TraceID
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.traceID
}

// Overhead runs baseline and cfg and returns cost(cfg)/cost(baseline),
// verifying that the instrumented program produced the same output.
func (r *Runner) Overhead(b *spec.Benchmark, cfg RunConfig) (float64, *Result, error) {
	base, err := r.Run(b, BaselineConfig())
	if err != nil {
		return 0, nil, err
	}
	if base.Err != nil {
		return 0, base, fmt.Errorf("baseline %s failed: %w", b.Name, base.Err)
	}
	res, err := r.Run(b, cfg)
	if err != nil {
		return 0, nil, err
	}
	if res.Err != nil {
		return 0, res, fmt.Errorf("%s under %s failed: %w", b.Name, cfg.Label, res.Err)
	}
	if res.Output != base.Output {
		return 0, res, fmt.Errorf("%s under %s changed program output:\nbaseline: %sinstrumented: %s",
			b.Name, cfg.Label, base.Output, res.Output)
	}
	// A zero-cost baseline would make the division produce +Inf/NaN and
	// silently poison every geometric mean downstream.
	if base.Stats.Cost == 0 {
		return 0, res, fmt.Errorf("baseline %s has zero cost; overhead undefined", b.Name)
	}
	return float64(res.Stats.Cost) / float64(base.Stats.Cost), res, nil
}

// GeoMean returns the geometric mean of the values (the paper reports mean
// slowdowns as geometric means over the benchmarks). NaN values — failed
// cells in a partial figure — are skipped rather than poisoning the mean.
// With no usable values at all the mean is undefined and GeoMean returns
// NaN; callers must render that as missing (Figure.Render prints "fail",
// RenderCheckOpt "n/a") instead of a fabricated number. Returning 0 here —
// the old behaviour — read as "zero overhead", the most misleading possible
// value for an all-failed figure.
func GeoMean(vals []float64) float64 {
	sum, n := 0.0, 0
	for _, v := range vals {
		if math.IsNaN(v) {
			continue
		}
		sum += math.Log(v)
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return math.Exp(sum / float64(n))
}
