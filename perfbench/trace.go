package main

import (
	"encoding/json"
	"fmt"
	"os"
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

// Tracing from outside the program: the traced run wraps the benchmark's own
// calls into each layer's public functions in spans. Spans stay in memory
// and are written when the run ends.

// span is one timed call into a layer. Spans of one op share Cell; Parent is
// the index of the enclosing span (-1 for the op's root span); an op's root
// span is labelled with the cell it ran.
type span struct {
	Name    string  `json:"name"`
	Label   string  `json:"label,omitempty"`
	Cell    int     `json:"cell"`
	Parent  int     `json:"parent"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

type tracer struct {
	t0    time.Time
	cells atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return float64(time.Since(t.t0)) / float64(time.Microsecond) }

// newCell allocates the ID shared by the spans of one op.
func (t *tracer) newCell() int { return int(t.cells.Add(1)) }

func (t *tracer) begin(name string, cell, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Cell: cell, Parent: parent, StartUS: t.now()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	t.mu.Lock()
	t.spans[id].EndUS = t.now()
	t.mu.Unlock()
}

// record adds a span whose interval was measured elsewhere.
func (t *tracer) record(name, label string, cell, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	us := func(at time.Time) float64 { return float64(at.Sub(t.t0)) / float64(time.Microsecond) }
	t.spans = append(t.spans, span{Name: name, Label: label, Cell: cell, Parent: parent, StartUS: us(start), EndUS: us(end)})
	return len(t.spans) - 1
}

func (t *tracer) label(id int, label string) {
	t.mu.Lock()
	t.spans[id].Label = label
	t.mu.Unlock()
}

// layerTimes sums, per span name, the total and the self time in
// milliseconds; a span's self time is its duration minus its children's.
func (t *tracer) layerTimes() (total, self map[string]float64, roots int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndUS - s.StartUS
		}
	}
	total, self = map[string]float64{}, map[string]float64{}
	for i, s := range t.spans {
		d := s.EndUS - s.StartUS
		total[s.Name] += d / 1000
		self[s.Name] += (d - child[i]) / 1000
		if s.Parent < 0 {
			roots++
		}
	}
	return total, self, roots
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// modCache compiles each benchmark once and hands out clones, as a
// harness.Runner does over its lifetime.
type modCache struct {
	mu sync.Mutex
	m  map[string]*ir.Module
}

func newModCache() *modCache { return &modCache{m: map[string]*ir.Module{}} }

func (mc *modCache) get(b *spec.Benchmark) (*ir.Module, error) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	m, ok := mc.m[b.Name]
	if !ok {
		var err error
		if m, err = b.Compile(); err != nil {
			return nil, err
		}
		mc.m[b.Name] = m
	}
	return ir.CloneModule(m), nil
}

// instrumentHook is the pipeline hook that instruments under cfg (nil for
// the baseline); around, when non-nil, wraps the instrumentation call.
func instrumentHook(cfg harness.RunConfig, out **core.Stats, errp *error, around func(func())) func(*ir.Module) {
	if !cfg.Instrument {
		return nil
	}
	return func(m *ir.Module) {
		call := func() { *out, *errp = core.Instrument(m, cfg.Core) }
		if around == nil {
			call()
			return
		}
		around(call)
	}
}

// vmOptions are the VM options harness.runAttempt derives from a config.
func vmOptions(cfg harness.RunConfig) vm.Options {
	var o vm.Options
	if cfg.Instrument {
		switch cfg.Core.Mechanism {
		case core.MechSoftBound:
			o.Mechanism = vm.MechSoftBound
		case core.MechLowFat:
			o.Mechanism = vm.MechLowFat
			o.LowFatHeap, o.LowFatStack, o.LowFatGlobals = true, true, true
		}
	}
	return o
}

// stageCounts are the work counts taken at the stage boundaries, summed over
// the traced cells.
type stageCounts struct {
	checksPlaced, checksEliminated, checksHoisted int
	irInstrs, ops                                 int
	instrs, checks                                uint64
}

// stager drives a campaign cell stage by stage, in harness.runAttempt's
// order: frontend, pipeline with the instrumentation hook, VM, bytecode
// compile, engine bind (native code generation and plugin load), execution.
type stager struct {
	tr *tracer
	mu sync.Mutex
	n  stageCounts
}

func newStager() *stager { return &stager{tr: newTracer()} }

func (st *stager) cell(c cellSpec, mods *modCache, engine bytecode.EngineKind) cellOutcome {
	o := cellOutcome{cell: c}
	id := st.tr.newCell()
	start := time.Now()
	root := st.tr.begin("harness.cell", id, -1)
	st.tr.label(root, c.String())
	err := st.stages(&o, id, root, mods, engine)
	st.tr.end(root)
	o.lat = time.Since(start)
	if err != nil {
		o.err = fmt.Errorf("%s: %w", c, err)
	}
	return o
}

func (st *stager) stages(o *cellOutcome, id, root int, mods *modCache, engine bytecode.EngineKind) error {
	tr := st.tr
	b := spec.ByName(o.cell.Bench)
	cfg, err := harness.ConfigByName(o.cell.Config)
	if err != nil {
		return err
	}
	sp := tr.begin("cc.compile", id, root)
	m, err := mods.get(b)
	tr.end(sp)
	if err != nil {
		return err
	}
	var is *core.Stats
	var ierr error
	pipe := tr.begin("opt.pipeline", id, root)
	opt.RunPipeline(m, cfg.EP, instrumentHook(cfg, &is, &ierr, func(f func()) {
		s := tr.begin("core.instrument", id, pipe)
		f()
		tr.end(s)
	}), opt.PipelineOptions{Level: cfg.OptLevel})
	tr.end(pipe)
	if ierr != nil {
		return ierr
	}
	sp = tr.begin("vm.new", id, root)
	machine, err := vm.New(m, vmOptions(cfg))
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("bytecode.compile", id, root)
	prog := bytecode.CompileCached("perfbench|"+o.cell.String()+"|"+engine.String(), m, machine.CostModel(), false, false, engine)
	tr.end(sp)
	sp = tr.begin("bytecode.bind", id, root)
	eng, err := bytecode.NewEngine(prog, machine)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("bytecode.exec", id, root)
	code, err := eng.Run()
	tr.end(sp)
	o.stats = machine.Stats

	st.mu.Lock()
	if is != nil {
		st.n.checksPlaced += is.ChecksPlaced
		st.n.checksEliminated += is.Opt.ChecksEliminated
		st.n.checksHoisted += is.Opt.ChecksHoisted
	}
	for _, f := range m.Funcs {
		st.n.irInstrs += f.NumInstrs()
	}
	st.n.ops += prog.NumOps()
	st.n.instrs += machine.Stats.Instrs
	st.n.checks += machine.Stats.Checks
	st.mu.Unlock()

	if err != nil {
		return err
	}
	return checkOutput(b, code, machine.Output())
}

// tierTotals sums the process-wide tier attribution.
type tierTotals struct{ native, fused, quick, bails, total uint64 }

func tierNow() tierTotals {
	rows, total := bytecode.TierStats()
	t := tierTotals{total: total}
	for _, r := range rows {
		t.native += r.NativeInstrs
		t.fused += r.FusedInstrs
		t.quick += r.QuickInstrs
		t.bails += r.NativeBails
	}
	return t
}

func (a tierTotals) delta(b tierTotals) tierTotals {
	return tierTotals{b.native - a.native, b.fused - a.fused, b.quick - a.quick, b.bails - a.bails, b.total - a.total}
}
