package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/spec"
	"repro/internal/vm"
)

// expectJSON holds every benchmark's expected output: the reference tree
// interpreter's output for the uninstrumented program. spec.Benchmark.Expect
// takes precedence where the suite sets it; instrumentation must not change
// a program's output, so every configuration is held to the same string.
//
//go:embed expect.json
var expectJSON []byte

var expected = func() map[string]string {
	m := map[string]string{}
	if err := json.Unmarshal(expectJSON, &m); err != nil {
		panic(fmt.Sprintf("expect.json: %v", err))
	}
	return m
}()

// checkOutput verifies one cell's outcome: exit 0 and the expected output.
func checkOutput(b *spec.Benchmark, code int32, out string) error {
	want := b.Expect
	if want == "" {
		want = expected[b.Name]
	}
	switch {
	case want == "":
		return fmt.Errorf("%s: no expected output recorded", b.Name)
	case code != 0:
		return fmt.Errorf("%s: exit code %d", b.Name, code)
	case out != want:
		return fmt.Errorf("%s: output %q, want %q", b.Name, out, want)
	}
	return nil
}

// cellOutcome is one executed cell.
type cellOutcome struct {
	cell  cellSpec
	lat   time.Duration
	stats vm.Stats
	err   error
}

// closedLoop runs do(0), do(1), ... from two workers, each starting the next
// op as soon as its previous one returns, for as long as more(i) holds.
func closedLoop(more func(i int) bool, do func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if !more(i) {
					return
				}
				do(i)
			}
		}()
	}
	wg.Wait()
}

// harnessCell runs one cell through harness.Runner.RunCell and checks it.
func harnessCell(r *harness.Runner, c cellSpec, ax harness.RunAxes) cellOutcome {
	out := cellOutcome{cell: c}
	b := spec.ByName(c.Bench)
	cfg, err := harness.ConfigByName(c.Config)
	if err != nil {
		out.err = err
		return out
	}
	start := time.Now()
	res, _, err := r.RunCell(b, cfg, ax)
	out.lat = time.Since(start)
	switch {
	case err != nil:
		out.err = fmt.Errorf("%s: %w", c, err)
	case res.Err != nil:
		out.err = fmt.Errorf("%s: %w", c, res.Err)
	default:
		out.stats = res.Stats
		if err := checkOutput(b, 0, res.Output); err != nil {
			out.err = fmt.Errorf("%s: %w", c, err)
		}
	}
	return out
}

// pass is the outcome of one campaign pass.
type pass struct {
	cells  []cellOutcome
	errs   []string
	runner *harness.Runner
}

func (p *pass) add(o cellOutcome) {
	p.cells = append(p.cells, o)
	if o.err != nil {
		p.errs = append(p.errs, o.err.Error())
	}
}

// runWarmPass runs one Fig. 9 pass on the compiler engine with two workers:
// through a fresh harness.Runner, or stage by stage under st when tracing.
func runWarmPass(cells []cellSpec, st *stager) pass {
	var p pass
	var mu sync.Mutex
	r := harness.NewRunner()
	r.SetParallelism(2)
	ax := harness.RunAxes{Engine: bytecode.EngineCompiler}
	mods := newModCache()
	closedLoop(func(i int) bool { return i < len(cells) }, func(i int) {
		var o cellOutcome
		if st != nil {
			o = st.cell(cells[i], mods, bytecode.EngineCompiler)
		} else {
			o = harnessCell(r, cells[i], ax)
		}
		mu.Lock()
		p.add(o)
		mu.Unlock()
	})
	p.runner = r
	return p
}

// simOverhead computes the paper's Fig. 9 geomeans of simulated cost over
// the baseline from one complete pass.
func simOverhead(cells []cellOutcome) (sb, lf float64, err error) {
	cost := map[cellSpec]uint64{}
	for _, o := range cells {
		if o.err == nil {
			cost[cellSpec{Bench: o.cell.Bench, Config: o.cell.Config}] = o.stats.Cost
		}
	}
	var sbs, lfs []float64
	for _, b := range benchNames() {
		base := cost[cellSpec{Bench: b, Config: "baseline"}]
		s, l := cost[cellSpec{Bench: b, Config: "softbound"}], cost[cellSpec{Bench: b, Config: "lowfat"}]
		if base == 0 || s == 0 || l == 0 {
			return 0, 0, fmt.Errorf("incomplete Fig. 9 pass: %s lacks a cost", b)
		}
		sbs = append(sbs, float64(s)/float64(base))
		lfs = append(lfs, float64(l)/float64(base))
	}
	return geomean(sbs), geomean(lfs), nil
}

// ledgerPass runs the Fig. 9 matrix once on the given engine, outside any
// timed window, and returns its simulated-cost geomeans. Simulated cost is
// engine-independent, so every workload reports the same ledger.
func ledgerPass(engine bytecode.EngineKind) (sb, lf float64, errs []string) {
	var p pass
	var mu sync.Mutex
	r := harness.NewRunner()
	r.SetParallelism(2)
	cells := matrix(benchNames(), fig9Configs)
	closedLoop(func(i int) bool { return i < len(cells) }, func(i int) {
		o := harnessCell(r, cells[i], harness.RunAxes{Engine: engine})
		mu.Lock()
		p.add(o)
		mu.Unlock()
	})
	sb, lf, err := simOverhead(p.cells)
	if err != nil {
		p.errs = append(p.errs, err.Error())
	}
	return sb, lf, p.errs
}

// nativeDelta is the change of the process-wide native-tier counters.
func nativeDelta(a, b bytecode.NativeTierStats) bytecode.NativeTierStats {
	return bytecode.NativeTierStats{
		Builds:             b.Builds - a.Builds,
		CacheHits:          b.CacheHits - a.CacheHits,
		Failures:           b.Failures - a.Failures,
		BuildNS:            b.BuildNS - a.BuildNS,
		FallbackBuildError: b.FallbackBuildError - a.FallbackBuildError,
		FallbackPluginLoad: b.FallbackPluginLoad - a.FallbackPluginLoad,
		FallbackDisabled:   b.FallbackDisabled - a.FallbackDisabled,
		FallbackPolicy:     b.FallbackPolicy - a.FallbackPolicy,
	}
}

func fallbacks(s bytecode.NativeTierStats) uint64 {
	return s.FallbackBuildError + s.FallbackPluginLoad + s.FallbackDisabled + s.FallbackPolicy
}

// campaignWarm: closed loop, two workers, repeated Fig. 9 passes on the
// compiler engine with a fresh Runner per pass and the plugin cache filled.
func campaignWarm(rn *run) error {
	// Set-up checks that the matrix compiles and instruments, and links the
	// filled plugin store into the private plugin cache.
	up := func() error {
		if _, err := distinctPrograms(matrix(benchNames(), fig9Configs)); err != nil {
			return err
		}
		return rn.private(true, false)
	}
	if err := rn.setup(up, rn.removePrivate); err != nil {
		return err
	}
	passNo := 0
	timed := func(until time.Time, st *stager) []cellOutcome {
		var all []cellOutcome
		var durs []time.Duration
		for time.Now().Before(until) {
			t0 := time.Now()
			p := runWarmPass(warmPass(rn.seed, passNo), st)
			d := time.Since(t0)
			passNo++
			durs = append(durs, d.Round(time.Millisecond))
			if st == nil {
				rn.passRates = append(rn.passRates, float64(len(p.cells))/d.Seconds())
				rn.harnessCache(p.runner)
			}
			all = append(all, p.cells...)
			if sb, lf, err := simOverhead(p.cells); err != nil {
				rn.fail(err.Error())
			} else {
				rn.sim(sb, lf)
			}
		}
		rn.note("passes: %v", durs)
		return all
	}
	n0 := bytecode.NativeStats()
	start := time.Now()
	cells := timed(start.Add(rn.window/rn.phases()), nil)
	rn.timedOps(cells, time.Since(start))
	nd := nativeDelta(n0, bytecode.NativeStats())
	rn.nativeOps(nd, len(cells))
	if nd.Builds != 0 {
		rn.invalid(fmt.Sprintf("%d go builds inside timed warm ops", nd.Builds))
	}
	if !rn.trace {
		return nil
	}
	st := newStager()
	traced := rn.tracedCampaign(st, func() []cellOutcome {
		return timed(time.Now().Add(rn.window/2), st)
	})
	// Cross-engine ledger: the tree interpreter is the reference semantics;
	// every program's vm.Stats must match bit for bit.
	rn.treeLedger(traced[len(traced)-len(benchNames())*len(fig9Configs):])
	return nil
}

// distinctPrograms compiles and instruments every cell once, as a campaign
// checks its matrix before starting, and keeps one cell per distinct
// instrumented module: distinct modules lower to distinct plugin sources.
func distinctPrograms(cells []cellSpec) ([]cellSpec, error) {
	var out []cellSpec
	seen := map[[32]byte]bool{}
	mods := newModCache()
	for _, c := range cells {
		cfg, err := harness.ConfigByName(c.Config)
		if err != nil {
			return nil, err
		}
		mod, err := mods.get(spec.ByName(c.Bench))
		if err != nil {
			return nil, err
		}
		var is *core.Stats
		var ierr error
		opt.RunPipeline(mod, cfg.EP, instrumentHook(cfg, &is, &ierr, nil), opt.PipelineOptions{Level: cfg.OptLevel})
		if ierr != nil {
			return nil, fmt.Errorf("%s: %w", c, ierr)
		}
		key := sha256.Sum256([]byte(fmt.Sprint(cfg.Instrument, cfg.Core.Mechanism) + "\n" + ir.FormatModule(mod)))
		if !seen[key] {
			seen[key] = true
			out = append(out, c)
		}
	}
	return out, nil
}

// campaignCold: closed loop, two workers, each op one cell whose program is
// new to the run, starting from an empty private plugin cache.
func campaignCold(rn *run) error {
	// Set-up finds the distinct programs of the bench × named-config matrix,
	// so that every op generates a plugin source no earlier op in the run
	// generated, and prepares an empty plugin cache over a build cache that
	// holds the plugin-mode runtime only.
	var pool []cellSpec
	up := func() error {
		var err error
		if pool, err = distinctPrograms(matrix(benchNames(), namedConfigs)); err != nil {
			return err
		}
		return rn.private(false, true)
	}
	if err := rn.setup(up, rn.removePrivate); err != nil {
		return err
	}
	order := coldOrder(rn.seed, pool)
	r := harness.NewRunner()
	r.SetParallelism(2)
	ax := harness.RunAxes{Engine: bytecode.EngineCompiler}
	// timed runs cells from the front of order until the deadline. The ops
	// that ran are a prefix of it (indices are claimed in order and the
	// deadline only passes once), so the next window starts after them.
	timed := func(until time.Time, do func(c cellSpec) cellOutcome) []cellOutcome {
		var mu sync.Mutex
		var out []cellOutcome
		closedLoop(func(i int) bool { return i < len(order) && time.Now().Before(until) }, func(i int) {
			o := do(order[i])
			mu.Lock()
			out = append(out, o)
			mu.Unlock()
		})
		if len(out) == len(order) {
			rn.invalid("the cold pool ran out before the window ended")
		}
		order = order[len(out):]
		return out
	}
	n0 := bytecode.NativeStats()
	start := time.Now()
	cells := timed(start.Add(rn.window/rn.phases()), func(c cellSpec) cellOutcome { return harnessCell(r, c, ax) })
	rn.timedOps(cells, time.Since(start))
	rn.harnessCache(r)
	nd := nativeDelta(n0, bytecode.NativeStats())
	rn.nativeOps(nd, len(cells))
	rn.coldValidity(nd, len(cells))
	if rn.trace {
		st := newStager()
		mods := newModCache()
		rn.tracedCampaign(st, func() []cellOutcome {
			n1 := bytecode.NativeStats()
			out := timed(time.Now().Add(rn.window/2), func(c cellSpec) cellOutcome {
				return st.cell(c, mods, bytecode.EngineCompiler)
			})
			rn.coldValidity(nativeDelta(n1, bytecode.NativeStats()), len(out))
			return out
		})
	}
	rn.ledger()
	return nil
}

// coldValidity flags a cold window whose ops did not each build exactly one
// plugin: every op binds one fresh program, which either builds, hits a
// cache or falls back, so builds == ops with no hits means one build each.
func (rn *run) coldValidity(nd bytecode.NativeTierStats, ops int) {
	if nd.Builds != uint64(ops)-fallbacks(nd) || nd.CacheHits != 0 {
		rn.invalid(fmt.Sprintf("cold ops did not build one plugin each: %d ops, %d builds, %d cache hits",
			ops, nd.Builds, nd.CacheHits))
	}
}
