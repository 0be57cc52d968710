// Package vm executes the IR of internal/ir on a simulated 64-bit machine:
// a sparse address space (internal/mem), a standard and a low-fat allocator,
// a small C standard library, and the runtime sides of the SoftBound and
// Low-Fat Pointers instrumentations (trie, shadow stack, low-fat check
// functions).
//
// Besides producing program output, the VM charges every executed operation
// against a CostModel and collects the statistics the paper's evaluation
// needs: dynamic cost (the stand-in for execution time), access checks
// executed, and how many of them ran with wide bounds (Table 2).
package vm

import (
	"bytes"
	"fmt"
	"io"

	"repro/internal/ir"
	"repro/internal/lowfat"
	"repro/internal/mem"
	"repro/internal/softbound"
	"repro/internal/telemetry"
)

// Mechanism selects which instrumentation runtime the VM provisions.
type Mechanism int

// Mechanism values.
const (
	MechNone Mechanism = iota
	MechSoftBound
	MechLowFat
)

// String returns the mechanism name.
func (m Mechanism) String() string {
	switch m {
	case MechSoftBound:
		return "softbound"
	case MechLowFat:
		return "lowfat"
	}
	return "none"
}

// Options configure a VM instance.
type Options struct {
	// Mechanism provisions the matching runtime state and library-wrapper
	// behaviour.
	Mechanism Mechanism
	// LowFatHeap routes malloc/calloc/realloc through the low-fat
	// allocator. With Low-Fat Pointers this holds even for allocations
	// made by uninstrumented library code (Section 4.3).
	LowFatHeap bool
	// LowFatStack mirrors allocas into the low-fat regions.
	LowFatStack bool
	// LowFatGlobals places module globals into low-fat sections. Globals
	// with common linkage are only placed low-fat after the
	// common-to-weak-linkage transformation (Appendix A.6).
	LowFatGlobals bool
	// SBCheckWrappers makes the SoftBound library wrappers check that the
	// accessed allocations are large enough (Figure 6). The paper disables
	// these checks for runtime comparability (Section 5.1.2).
	SBCheckWrappers bool
	// Cost overrides the default cost model.
	Cost *CostModel
	// SiteProfile enables per-check-site execution counters: every executed
	// check/metadata operation with a nonzero ir.Instr.Site is attributed to
	// its site (see internal/telemetry). Off by default; when disabled the
	// engines pay nothing for it.
	SiteProfile bool
	// Stdout receives program output; defaults to an internal buffer
	// readable via Output.
	Stdout io.Writer
	// MaxSteps aborts runaway programs (0 means the default of 2^34).
	MaxSteps uint64
	// Interrupt, when non-nil, is polled on the step-count path (every
	// interruptStride instructions): a raised flag stops the run with an
	// InterruptError. Supervisors use it for wall-clock deadlines,
	// campaign cancellation, and chaos-mode kills. Nil costs one counter
	// decrement and branch per dispatch.
	Interrupt *InterruptFlag
	// MemBudget, when nonzero, caps the bytes of address space the program
	// may materialize; exceeding it fails the run with a mem.BudgetError
	// instead of exhausting the host.
	MemBudget uint64
	// CoverInstrs, when non-nil, receives every executed instruction
	// (coverage tracking for the fault-injection campaign). Sharing the map
	// across concurrent VMs is the caller's problem.
	CoverInstrs map[*ir.Instr]bool
	// Forensics enables violation forensics: allocation tracking keyed by
	// ir AllocSite IDs, the flight recorder of recent memory events, and a
	// structured telemetry.ViolationReport attached to every ViolationError.
	// Off by default; the disabled path is untouched (the tree interpreter
	// registers separate recorded handlers, the bytecode engine compiles
	// recorded opcode variants, mirroring SiteProfile).
	Forensics bool
	// FlightSize is the flight-recorder ring capacity (0 means
	// telemetry.DefaultFlightSize). Only meaningful with Forensics.
	FlightSize int
	// Sites resolves check-site IDs to source provenance in reports
	// (optional; reports carry bare IDs without it).
	Sites *telemetry.SiteTable
	// AllocSites resolves allocation-site IDs to source provenance in
	// reports (optional; reports carry bare IDs without it).
	AllocSites *telemetry.AllocTable
}

// Stats aggregates dynamic execution statistics.
type Stats struct {
	// Instrs is the number of executed IR instructions.
	Instrs uint64
	// Cost is the accumulated abstract execution cost.
	Cost uint64
	// Loads and Stores count executed memory accesses.
	Loads  uint64
	Stores uint64
	// Checks counts executed dereference checks; WideChecks those that ran
	// with wide bounds, i.e. the unsafe dereferences of Table 2.
	Checks     uint64
	WideChecks uint64
	// InvariantChecks counts Low-Fat invariant (escape) checks.
	InvariantChecks uint64
	// RangeChecks counts executed hoisted range checks (one per loop
	// entry, replacing Checks that would have run every iteration);
	// WideRangeChecks those that ran with wide bounds.
	RangeChecks     uint64
	WideRangeChecks uint64
	// MetaLoads/MetaStores count SoftBound trie operations; ShadowOps the
	// shadow-stack operations.
	MetaLoads  uint64
	MetaStores uint64
	ShadowOps  uint64
	// Allocs and Frees count heap allocator calls.
	Allocs uint64
	Frees  uint64
}

// SiteCount is the dynamic profile of one check site (Options.SiteProfile):
// how often it executed, how often with wide bounds, and the abstract cost it
// accumulated. The slice returned by VM.SiteProfile is indexed by SiteID.
type SiteCount struct {
	// Execs counts executions of the site's operation.
	Execs uint64 `json:"execs"`
	// Wide counts executions that observed wide bounds (dereference checks
	// only; always 0 for invariant and metadata sites).
	Wide uint64 `json:"wide,omitempty"`
	// Cost is the abstract cost charged by the site's executions.
	Cost uint64 `json:"cost"`
}

// UnsafePercent returns the percentage of executed checks that used wide
// bounds (the metric of Table 2). It returns 0 when no checks ran.
func (s *Stats) UnsafePercent() float64 {
	if s.Checks == 0 {
		return 0
	}
	return 100 * float64(s.WideChecks) / float64(s.Checks)
}

// ViolationError is a memory-safety violation reported by instrumentation
// checks. Note that a reported violation is not necessarily a real bug in
// the program: the paper's usability analysis (Section 4) revolves around
// spurious reports caused by stale metadata or out-of-bounds pointer
// arithmetic.
type ViolationError struct {
	Mechanism string
	Kind      string // "deref", "invariant", "wrapper"
	Ptr       uint64
	Detail    string
	// Report is the structured diagnostic synthesized when forensics is on
	// (nil otherwise). It does not participate in Error(), so verdict
	// strings are identical with and without forensics.
	Report *telemetry.ViolationReport
}

// Error implements the error interface.
func (v *ViolationError) Error() string {
	return fmt.Sprintf("%s: %s violation at pointer %#x: %s", v.Mechanism, v.Kind, v.Ptr, v.Detail)
}

// TraceFrame is one level of an IR-level backtrace: the function, block and
// instruction that were executing when the error was raised.
type TraceFrame struct {
	Func  string
	Block string
	Instr string
}

// String formats the frame like a debugger line.
func (t TraceFrame) String() string {
	s := "@" + t.Func
	if t.Block != "" {
		s += " %" + t.Block
	}
	if t.Instr != "" {
		s += ": " + t.Instr
	}
	return s
}

// RuntimeError is an internal execution error (unsupported operation,
// division by zero, step limit). Trace, when present, is the IR-level
// backtrace from the innermost frame outwards.
type RuntimeError struct {
	Msg   string
	Trace []TraceFrame
}

// Error implements the error interface.
func (e *RuntimeError) Error() string {
	s := "vm: " + e.Msg
	for _, t := range e.Trace {
		s += "\n\tat " + t.String()
	}
	return s
}

// exitSignal unwinds the interpreter on exit().
type exitSignal struct{ code int32 }

func (exitSignal) Error() string { return "exit" }

// ExtFn is the handler signature for external functions.
type ExtFn func(vm *VM, call *ir.Instr, args []uint64) (uint64, error)

// VM is one execution instance. It is single-use: create, Run, inspect.
type VM struct {
	Mod    *ir.Module
	AS     *mem.AddrSpace
	Std    *mem.StdAllocator
	LF     *lowfat.Allocator
	Trie   *softbound.Trie
	Shadow *softbound.ShadowStack
	Stats  Stats

	opts      Options
	cost      *CostModel
	heapSizes map[uint64]uint64
	globals   map[*ir.Global]uint64
	funcAddrs map[*ir.Func]uint64
	externals map[string]ExtFn
	outBuf    *bytes.Buffer
	stdout    io.Writer
	// siteProf is indexed by ir.Instr.Site; nil unless Options.SiteProfile,
	// so the disabled case costs one nil check in the runtime handlers.
	siteProf []SiteCount
	// flight and allocs are the forensics state: nil unless
	// Options.Forensics. allocs maps live allocation bases to their static
	// allocation site and size; stack entries are overwritten on frame
	// reuse rather than popped.
	flight   *telemetry.Flight
	allocs   map[uint64]allocRec
	sp       uint64 // linear stack pointer (grows down)
	rng      uint64
	steps    uint64
	maxSteps uint64
	// intrCountdown schedules the next InterruptFlag poll: it counts down
	// once per executed instruction and triggers a poll at zero, so a
	// raised flag is observed within interruptStride instructions.
	intrCountdown uint64
	// frames is the active interpreter frame stack, innermost last; it
	// exists purely to produce IR-level backtraces.
	frames []*frame
}

// New creates a VM for the module with the given options and lays out the
// globals. The module must be fully linked (all called functions defined or
// handled as externals).
func New(mod *ir.Module, opts Options) (*VM, error) {
	cm := opts.Cost
	if cm == nil {
		cm = DefaultCostModel()
	}
	v := &VM{
		Mod:       mod,
		AS:        mem.NewAddrSpace(),
		Std:       mem.NewStdAllocator(mem.HeapBase, mem.HeapLimit),
		opts:      opts,
		cost:      cm,
		globals:   make(map[*ir.Global]uint64),
		funcAddrs: make(map[*ir.Func]uint64),
		externals: make(map[string]ExtFn),
		sp:        mem.StackTop,
		rng:       0x2545F4914F6CDD1D,
		maxSteps:  opts.MaxSteps,
	}
	if v.maxSteps == 0 {
		v.maxSteps = 1 << 34
	}
	v.intrCountdown = InterruptStride
	if opts.SiteProfile {
		// The VM is created after instrumentation, so the module already
		// carries its SiteIDs; size the profile to the largest one.
		var maxSite int32
		for _, f := range mod.Funcs {
			for _, b := range f.Blocks {
				for _, in := range b.Instrs {
					if in.Site > maxSite {
						maxSite = in.Site
					}
				}
			}
		}
		v.siteProf = make([]SiteCount, maxSite+1)
	}
	if opts.Forensics {
		v.flight = telemetry.NewFlight(opts.FlightSize)
		v.allocs = make(map[uint64]allocRec)
	}
	v.AS.Limit = opts.MemBudget
	v.LF = lowfat.NewAllocator(v.Std)
	if opts.Mechanism == MechSoftBound {
		v.Trie = softbound.NewTrie()
		v.Shadow = softbound.NewShadowStack(0) // one frame; grows with call depth
	}
	if opts.Stdout != nil {
		v.stdout = opts.Stdout
	} else {
		v.outBuf = &bytes.Buffer{}
		v.stdout = v.outBuf
	}
	registerLibc(v)
	registerMIRuntime(v)
	if opts.Forensics {
		registerForensicsHandlers(v)
	}
	if err := v.layoutGlobals(); err != nil {
		return nil, err
	}
	return v, nil
}

// Output returns the program output collected so far (empty if a custom
// Stdout writer was supplied).
func (v *VM) Output() string {
	if v.outBuf == nil {
		return ""
	}
	return v.outBuf.String()
}

// RegisterExternal installs (or overrides) the handler for an external
// function.
func (v *VM) RegisterExternal(name string, fn ExtFn) { v.externals[name] = fn }

// GlobalAddr returns the address assigned to a global.
func (v *VM) GlobalAddr(g *ir.Global) uint64 { return v.globals[g] }

// layoutGlobals assigns addresses to all global definitions and materializes
// their initializers. Pass 1 assigns addresses (so initializers may refer to
// any global); pass 2 writes the bytes and, under SoftBound, registers trie
// metadata for pointer-valued initializers.
func (v *VM) layoutGlobals() error {
	stdBase := uint64(mem.GlobalsBase)
	extBase := uint64(mem.ExtLibBase)
	fnBase := uint64(mem.ExtLibBase + 0x1000_0000)

	for _, f := range v.Mod.Funcs {
		v.funcAddrs[f] = fnBase
		fnBase += 16
	}

	for _, g := range v.Mod.Globals {
		if !g.IsDefinition() {
			continue
		}
		size := uint64(g.ValueTy.Size())
		if size == 0 {
			size = 1
		}
		var addr uint64
		switch {
		case g.ExternalLib:
			extBase = alignAddr(extBase, uint64(g.ValueTy.Align()))
			addr = extBase
			extBase += size
		case v.opts.LowFatGlobals && g.Linkage != ir.CommonLinkage:
			a, lowFat, err := v.LF.Alloc(size)
			if err != nil {
				return fmt.Errorf("vm: laying out global @%s: %w", g.Name, err)
			}
			_ = lowFat
			addr = a
		default:
			stdBase = alignAddr(stdBase, uint64(g.ValueTy.Align()))
			addr = stdBase
			stdBase += size
		}
		v.globals[g] = addr
		if v.allocs != nil {
			// Globals are tracked for attribution but not flight-recorded:
			// layout happens before execution and would only flush the ring.
			v.allocs[addr] = allocRec{site: g.AllocSite, size: size}
		}
	}
	// Resolve declarations against definitions of the same name, if any.
	for _, g := range v.Mod.Globals {
		if g.IsDefinition() {
			continue
		}
		if def := v.Mod.Global(g.Name); def != nil && def.IsDefinition() {
			v.globals[g] = v.globals[def]
		}
	}

	for _, g := range v.Mod.Globals {
		if !g.IsDefinition() {
			continue
		}
		if err := v.writeInit(v.globals[g], g.ValueTy, g.Init); err != nil {
			return fmt.Errorf("vm: initializing @%s: %w", g.Name, err)
		}
	}
	return nil
}

func alignAddr(a, align uint64) uint64 {
	if align == 0 {
		return a
	}
	return (a + align - 1) &^ (align - 1)
}

// writeInit materializes one initializer into memory.
func (v *VM) writeInit(addr uint64, ty *ir.Type, init ir.Initializer) error {
	switch iv := init.(type) {
	case nil, ir.ZeroInit:
		return nil // pages are zero on materialization
	case ir.IntInit:
		return v.AS.Store(addr, ty.Size(), uint64(iv.V))
	case ir.FloatInit:
		return v.AS.Store(addr, ty.Size(), floatBits(ty, iv.V))
	case ir.BytesInit:
		return v.AS.WriteBytes(addr, iv.Data)
	case ir.ArrayInit:
		if ty.Kind != ir.ArrayKind {
			return fmt.Errorf("array initializer for %s", ty)
		}
		esz := uint64(ty.Elem.Size())
		for i, e := range iv.Elems {
			if err := v.writeInit(addr+uint64(i)*esz, ty.Elem, e); err != nil {
				return err
			}
		}
		return nil
	case ir.StructInit:
		if ty.Kind != ir.StructKind {
			return fmt.Errorf("struct initializer for %s", ty)
		}
		for i, e := range iv.Fields {
			if err := v.writeInit(addr+uint64(ty.FieldOffset(i)), ty.Fields[i], e); err != nil {
				return err
			}
		}
		return nil
	case ir.GlobalRefInit:
		target := v.globals[iv.G]
		if target == 0 {
			if def := v.Mod.Global(iv.G.Name); def != nil {
				target = v.globals[def]
			}
		}
		val := target + uint64(iv.Offset)
		if err := v.AS.Store(addr, ir.PtrSize, val); err != nil {
			return err
		}
		if v.Trie != nil {
			v.Trie.Store(addr, softbound.Bounds{Base: target, Bound: target + uint64(iv.G.ValueTy.Size())})
		}
		return nil
	case ir.FuncRefInit:
		return v.AS.Store(addr, ir.PtrSize, v.funcAddrs[iv.F])
	}
	return fmt.Errorf("unknown initializer %T", init)
}

// Run executes main() and returns its exit code. Violations, faults and
// runtime errors are returned as errors; internal interpreter panics are
// recovered into RuntimeErrors carrying an IR-level backtrace, so a
// malformed module can never take down the embedding process.
func (v *VM) Run() (code int32, err error) {
	defer v.recoverPanic(&err)
	mainFn := v.Mod.Func("main")
	if mainFn == nil || mainFn.IsDecl() {
		return 0, &RuntimeError{Msg: "no main function"}
	}
	args := make([]uint64, len(mainFn.Params))
	ret, err := v.call(mainFn, args)
	if err != nil {
		if ex, ok := err.(exitSignal); ok {
			return ex.code, nil
		}
		return -1, err
	}
	return int32(ret), nil
}

// CallByName invokes a defined function with the given raw argument values.
// Intended for tests.
func (v *VM) CallByName(name string, args ...uint64) (ret uint64, err error) {
	defer v.recoverPanic(&err)
	f := v.Mod.Func(name)
	if f == nil {
		return 0, &RuntimeError{Msg: "no function " + name}
	}
	ret, err = v.call(f, args)
	if ex, ok := err.(exitSignal); ok {
		return uint64(ex.code), nil
	}
	return ret, err
}

// recoverPanic converts an interpreter panic into a structured RuntimeError
// with the current IR-level backtrace attached.
func (v *VM) recoverPanic(err *error) {
	p := recover()
	if p == nil {
		return
	}
	if re, ok := p.(*RuntimeError); ok {
		*err = re
		return
	}
	*err = &RuntimeError{Msg: fmt.Sprintf("internal panic: %v", p), Trace: v.backtrace()}
}

// backtrace captures the active frame stack, innermost first.
func (v *VM) backtrace() []TraceFrame {
	out := make([]TraceFrame, 0, len(v.frames))
	for i := len(v.frames) - 1; i >= 0; i-- {
		fr := v.frames[i]
		t := TraceFrame{Func: fr.fn.Name}
		if fr.curBlock != nil {
			t.Block = fr.curBlock.Name
		}
		if fr.curInstr != nil {
			t.Instr = ir.FormatInstr(fr.curInstr)
		}
		out = append(out, t)
	}
	return out
}
