package bytecode

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/ir"
	"repro/internal/lowfat"
	"repro/internal/mem"
	"repro/internal/softbound"
	"repro/internal/vm"
)

// Engine executes a compiled Program against the runtime state of a
// *vm.VM. The VM supplies memory, allocators, metadata structures, libc
// handlers and the statistics sink, so everything a program can observe —
// output, heap layout, violation verdicts, statistics — is shared with the
// reference interpreter; the Engine only replaces instruction dispatch.
//
// An Engine is single-use in the same sense a VM is: create one per run.
type Engine struct {
	vm *vm.VM
	p  *Program
	cm *vm.CostModel
	st *vm.Stats
	// prof is the VM's per-site counter slice (indexed by SiteID), shared
	// with the tree interpreter so both engines' profiles read identically.
	prof []vm.SiteCount

	// fb points at the running frame's low-fat fallback allocation list
	// (saved/restored across calls); alloca appends through it.
	fb *[]uint64

	lfStack bool
	// intr is the VM's cooperative cancellation flag (nil when unused),
	// polled whenever the step count reaches a multiple of
	// vm.InterruptStride, as the tree interpreter does, so a raised flag
	// stops every engine at the same instruction.
	intr *vm.InterruptFlag

	// consts holds each function's constant pool with global/function
	// relocations resolved against the bound VM.
	consts [][]uint64

	frames []engFrame
	// free recycles register files across calls.
	free   [][]uint64
	phibuf []uint64

	// env is the engine's execution state, shared with native code: the
	// step count and limit, the page cache the load/store fast path uses,
	// and, once native code is bound, the statistics views and closures.
	env natEnv
	// nat is the loaded native program (compiler tier; plain and
	// site-profiled runs), nil when every function stays on the dispatch
	// loop. natFn tracks the function currently executing natively, giving
	// the environment's error and gate closures their op context across
	// nested calls.
	nat   *natProg
	natFn *Fn

	// tierFns, when non-nil (compiler tier), accumulates per-function tier
	// attribution: instructions retired by native code plus native
	// entry/bail/gate counts. Merged into the process-wide table at the end
	// of Run (tier.go).
	tierFns []tierCount
	// natGateInstrs accumulates the st.Instrs retired inside the current
	// native frame's gate calls (the gated op itself plus everything nested
	// calls execute); execNative subtracts it so the native bucket counts
	// only instructions the generated code retired. Saved/restored across
	// nested native frames like natFn.
	natGateInstrs uint64
}

// engFrame tracks the executing function and its last call/raise site for
// backtraces.
type engFrame struct {
	fn *Fn
	pc int
}

// NewEngine binds a compiled program to a VM. The VM must have been created
// for the exact module the program was compiled from, with the same cost
// model, and must not record coverage: only the reference interpreter
// (vm.Run) marks Options.CoverInstrs.
func NewEngine(p *Program, machine *vm.VM) (*Engine, error) {
	if machine.Mod != p.mod {
		return nil, fmt.Errorf("bytecode: program was compiled for a different module")
	}
	if *machine.CostModel() != p.cm {
		return nil, fmt.Errorf("bytecode: cost model differs from the one the program was compiled with")
	}
	opts := machine.Options()
	if opts.CoverInstrs != nil {
		return nil, fmt.Errorf("bytecode: coverage runs need the tree engine (vm.Run)")
	}
	if p.prof != opts.SiteProfile {
		return nil, fmt.Errorf("bytecode: program compiled with SiteProfile=%v but VM has SiteProfile=%v", p.prof, opts.SiteProfile)
	}
	if p.rec != opts.Forensics {
		return nil, fmt.Errorf("bytecode: program compiled with Forensics=%v but VM has Forensics=%v", p.rec, opts.Forensics)
	}
	e := &Engine{
		vm:      machine,
		p:       p,
		cm:      machine.CostModel(),
		st:      &machine.Stats,
		prof:    machine.SiteProfile(),
		lfStack: opts.LowFatStack,
		intr:    opts.Interrupt,
		consts:  make([][]uint64, len(p.fns)),
	}
	e.env.Cnt[cntMaxSteps] = machine.StepLimit()
	for i, fn := range p.fns {
		cs := make([]uint64, len(fn.consts))
		for j, ce := range fn.consts {
			switch ce.kind {
			case constRaw:
				cs[j] = ce.val
			case constGlobal:
				cs[j] = machine.GlobalAddr(ce.g)
			case constFunc:
				cs[j] = machine.FuncAddr(ce.f)
			}
		}
		e.consts[i] = cs
	}
	// Bind the native tier when the program supports it (compiler tier).
	// Site-profiled programs lower with baked site commits; only forensics
	// stays interpreter-only (native() counts the fallback reason). A nil
	// result — build failure, disabled platform, policy — silently leaves
	// every function on the bytecode dispatch loop; semantics never depend
	// on the binding.
	if p.tier == EngineCompiler {
		e.tierFns = make([]tierCount, len(p.fns))
		if e.nat = p.native(); e.nat != nil {
			e.bindEnv()
		}
	}
	return e, nil
}

// Run executes main, mirroring vm.Run's contract: the exit code is main's
// return value (or the exit() argument), execution errors return code -1.
func (e *Engine) Run() (code int32, err error) {
	defer e.recoverPanic(&err)
	if e.tierFns != nil {
		start := e.st.Instrs
		defer func() { e.tierMerge(e.st.Instrs - start) }()
	}
	if e.p.main == nil {
		return 0, &vm.RuntimeError{Msg: "no main function"}
	}
	args := make([]uint64, len(e.p.main.ir.Params))
	ret, err := e.call(e.p.main, args)
	if err != nil {
		if c, ok := vm.AsExit(err); ok {
			return c, nil
		}
		return -1, err
	}
	return int32(ret), nil
}

func (e *Engine) recoverPanic(err *error) {
	p := recover()
	if p == nil {
		return
	}
	if re, ok := p.(*vm.RuntimeError); ok {
		*err = re
		return
	}
	*err = &vm.RuntimeError{Msg: fmt.Sprintf("internal panic: %v", p), Trace: e.backtrace()}
}

// backtrace captures the engine frame stack, innermost first: each frame
// reports the instruction of the op at its pc (the raising op innermost,
// the pending call op in outer frames).
func (e *Engine) backtrace() []vm.TraceFrame {
	out := make([]vm.TraceFrame, 0, len(e.frames))
	for i := len(e.frames) - 1; i >= 0; i-- {
		fr := e.frames[i]
		t := vm.TraceFrame{Func: fr.fn.ir.Name}
		if fr.pc < len(fr.fn.ops) {
			if cur := fr.fn.ops[fr.pc].instr; cur != nil {
				if cur.Block != nil {
					t.Block = cur.Block.Name
				}
				t.Instr = ir.FormatInstr(cur)
			}
		}
		out = append(out, t)
	}
	return out
}

// rte builds a RuntimeError raised at the op at pc.
func (e *Engine) rte(pc int, msg string) error {
	e.frames[len(e.frames)-1].pc = pc
	return &vm.RuntimeError{Msg: msg, Trace: e.backtrace()}
}

func (e *Engine) getRegs(n int) []uint64 {
	if k := len(e.free); k > 0 {
		r := e.free[k-1]
		e.free = e.free[:k-1]
		if cap(r) >= n {
			r = r[:n]
			clear(r)
			return r
		}
	}
	return make([]uint64, n)
}

// call mirrors vm.call: save/restore the linear stack pointer and, under a
// low-fat stack, the mirror allocator's mark and fallback allocations.
func (e *Engine) call(fn *Fn, args []uint64) (uint64, error) {
	savedSP := e.vm.StackPointer()
	var lfMark lowfat.Mark
	if e.lfStack {
		lfMark = e.vm.LF.Checkpoint()
	}
	e.frames = append(e.frames, engFrame{fn: fn})
	var fallback []uint64
	savedFB := e.fb
	e.fb = &fallback
	ret, err := e.exec(fn, args)
	e.fb = savedFB
	e.frames = e.frames[:len(e.frames)-1]
	e.vm.SetStackPointer(savedSP)
	if e.lfStack {
		e.vm.LF.Release(lfMark)
		for _, a := range fallback {
			_ = e.vm.Std.Free(a)
		}
	}
	return ret, err
}

// fill loads the page backing addr into page-cache slot s.
func (e *Engine) fill(addr, s uint64) error {
	pg, err := e.vm.AS.Page(addr)
	if err != nil {
		return err
	}
	e.env.Pages[s], e.env.PageID[s] = pg, addr>>mem.PageBits+1
	return nil
}

// load is the fast-path memory read: in-page aligned-width accesses go
// through the page cache native code shares, everything else to the address
// space (faults, budget charging and page-straddling reads keep their exact
// semantics there).
func (e *Engine) load(addr uint64, width uint8) (uint64, error) {
	w := uint64(width)
	off := addr & (mem.PageSize - 1)
	if addr >= mem.NullGuardSize && off+w <= mem.PageSize && addr+w > addr {
		pn := addr>>mem.PageBits + 1
		s := natSlot(pn)
		if e.env.PageID[s] != pn {
			if err := e.fill(addr, s); err != nil {
				return 0, err
			}
		}
		d := e.env.Pages[s][off:]
		switch width {
		case 8:
			return binary.LittleEndian.Uint64(d), nil
		case 4:
			return uint64(binary.LittleEndian.Uint32(d)), nil
		case 2:
			return uint64(binary.LittleEndian.Uint16(d)), nil
		case 1:
			return uint64(d[0]), nil
		}
	}
	return e.vm.AS.Load(addr, int(width))
}

func (e *Engine) store(addr uint64, width uint8, val uint64) error {
	w := uint64(width)
	off := addr & (mem.PageSize - 1)
	if addr >= mem.NullGuardSize && off+w <= mem.PageSize && addr+w > addr {
		pn := addr>>mem.PageBits + 1
		s := natSlot(pn)
		if e.env.PageID[s] != pn {
			if err := e.fill(addr, s); err != nil {
				return err
			}
		}
		d := e.env.Pages[s][off:]
		switch width {
		case 8:
			binary.LittleEndian.PutUint64(d, val)
			return nil
		case 4:
			binary.LittleEndian.PutUint32(d, uint32(val))
			return nil
		case 2:
			binary.LittleEndian.PutUint16(d, uint16(val))
			return nil
		case 1:
			d[0] = byte(val)
			return nil
		}
	}
	return e.vm.AS.Store(addr, int(width), val)
}

func ffrom(wbits uint8, v uint64) float64 {
	if wbits == 32 {
		return float64(math.Float32frombits(uint32(v)))
	}
	return math.Float64frombits(v)
}

func fbits(wbits uint64, f float64) uint64 {
	if wbits == 32 {
		return uint64(math.Float32bits(float32(f)))
	}
	return math.Float64bits(f)
}

func sext(v uint64, sh uint8) int64 { return int64(v<<sh) >> sh }

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// exec is the dispatch loop. The preamble above the switch is the exact
// accounting sequence of the reference interpreter's instruction loop:
// step++, step-limit check, interrupt poll at every multiple of
// vm.InterruptStride, Stats.Instrs++, Stats.Cost.
//
// Under the compiler tier a function with native code enters it once, at
// pc 0; a bail-out (step limit inside a batch, interrupt pending) ends the
// run within one batch, so the rest of that invocation finishes here. A
// function without native code runs here from the start.
//
// The gate-class ops (those native code routes back to the host) have no
// case here: they reach gate through the default case, so the dispatch
// loop and the native gate share one implementation.
func (e *Engine) exec(fn *Fn, args []uint64) (uint64, error) {
	regs := e.getRegs(fn.nregs)
	defer func() { e.free = append(e.free, regs) }()
	copy(regs[:fn.nparams], args)
	copy(regs[fn.constBase:], e.consts[fn.idx])

	st := e.st
	cm := e.cm
	cnt := &e.env.Cnt
	ops := fn.ops
	pc := 0
	if code := e.natCode(fn); code != nil {
		npc, ret, done, err := e.execNative(fn, code, regs)
		if err != nil || done {
			return ret, err
		}
		pc = npc
	}
	for {
		o := &ops[pc]
		if o.code < opUncountedStart {
			s := cnt[cntSteps] + 1
			cnt[cntSteps] = s
			if s > cnt[cntMaxSteps] || s%vm.InterruptStride == 0 {
				if err := e.stepEvent(pc); err != nil {
					return 0, err
				}
			}
			st.Instrs++
			st.Cost += o.cost
		}
		switch o.code {
		case opAdd:
			regs[o.dst] = (regs[o.a] + regs[o.b]) & o.imm
		case opSub:
			regs[o.dst] = (regs[o.a] - regs[o.b]) & o.imm
		case opMul:
			regs[o.dst] = (regs[o.a] * regs[o.b]) & o.imm
		case opSDiv, opSRem:
			a := sext(regs[o.a], o.wbits)
			b := sext(regs[o.b], o.wbits)
			if b == 0 {
				return 0, e.rte(pc, "integer division by zero")
			}
			var r int64
			if o.code == opSDiv {
				r = a / b
			} else {
				r = a % b
			}
			regs[o.dst] = uint64(r) & o.imm
		case opUDiv, opURem:
			a := regs[o.a] & o.imm
			b := regs[o.b] & o.imm
			if b == 0 {
				return 0, e.rte(pc, "integer division by zero")
			}
			if o.code == opUDiv {
				regs[o.dst] = (a / b) & o.imm
			} else {
				regs[o.dst] = (a % b) & o.imm
			}
		case opAnd:
			regs[o.dst] = (regs[o.a] & regs[o.b]) & o.imm
		case opOr:
			regs[o.dst] = (regs[o.a] | regs[o.b]) & o.imm
		case opXor:
			regs[o.dst] = (regs[o.a] ^ regs[o.b]) & o.imm
		case opShl:
			sh := regs[o.b] & uint64(o.x)
			regs[o.dst] = (regs[o.a] << sh) & o.imm
		case opLShr:
			sh := regs[o.b] & uint64(o.x)
			regs[o.dst] = (regs[o.a] & o.imm) >> sh
		case opAShr:
			sh := regs[o.b] & uint64(o.x)
			regs[o.dst] = uint64(sext(regs[o.a], o.wbits)>>sh) & o.imm

		case opFAdd:
			regs[o.dst] = fbits(uint64(o.wbits), ffrom(o.wbits, regs[o.a])+ffrom(o.wbits, regs[o.b]))
		case opFSub:
			regs[o.dst] = fbits(uint64(o.wbits), ffrom(o.wbits, regs[o.a])-ffrom(o.wbits, regs[o.b]))
		case opFMul:
			regs[o.dst] = fbits(uint64(o.wbits), ffrom(o.wbits, regs[o.a])*ffrom(o.wbits, regs[o.b]))
		case opFDiv:
			regs[o.dst] = fbits(uint64(o.wbits), ffrom(o.wbits, regs[o.a])/ffrom(o.wbits, regs[o.b]))

		case opEQ:
			regs[o.dst] = b2u(regs[o.a]&o.imm == regs[o.b]&o.imm)
		case opNE:
			regs[o.dst] = b2u(regs[o.a]&o.imm != regs[o.b]&o.imm)
		case opSLT:
			regs[o.dst] = b2u(sext(regs[o.a], o.wbits) < sext(regs[o.b], o.wbits))
		case opSLE:
			regs[o.dst] = b2u(sext(regs[o.a], o.wbits) <= sext(regs[o.b], o.wbits))
		case opSGT:
			regs[o.dst] = b2u(sext(regs[o.a], o.wbits) > sext(regs[o.b], o.wbits))
		case opSGE:
			regs[o.dst] = b2u(sext(regs[o.a], o.wbits) >= sext(regs[o.b], o.wbits))
		case opULT:
			regs[o.dst] = b2u(regs[o.a]&o.imm < regs[o.b]&o.imm)
		case opULE:
			regs[o.dst] = b2u(regs[o.a]&o.imm <= regs[o.b]&o.imm)
		case opUGT:
			regs[o.dst] = b2u(regs[o.a]&o.imm > regs[o.b]&o.imm)
		case opUGE:
			regs[o.dst] = b2u(regs[o.a]&o.imm >= regs[o.b]&o.imm)

		case opFOEQ:
			regs[o.dst] = b2u(ffrom(o.wbits, regs[o.a]) == ffrom(o.wbits, regs[o.b]))
		case opFONE:
			regs[o.dst] = b2u(ffrom(o.wbits, regs[o.a]) != ffrom(o.wbits, regs[o.b]))
		case opFOLT:
			regs[o.dst] = b2u(ffrom(o.wbits, regs[o.a]) < ffrom(o.wbits, regs[o.b]))
		case opFOLE:
			regs[o.dst] = b2u(ffrom(o.wbits, regs[o.a]) <= ffrom(o.wbits, regs[o.b]))
		case opFOGT:
			regs[o.dst] = b2u(ffrom(o.wbits, regs[o.a]) > ffrom(o.wbits, regs[o.b]))
		case opFOGE:
			regs[o.dst] = b2u(ffrom(o.wbits, regs[o.a]) >= ffrom(o.wbits, regs[o.b]))

		case opTrunc:
			regs[o.dst] = regs[o.a] & o.imm
		case opSExt:
			regs[o.dst] = uint64(sext(regs[o.a], o.wbits)) & o.imm
		case opFPCvt:
			regs[o.dst] = fbits(o.imm, ffrom(o.wbits, regs[o.a]))
		case opFPToSI:
			regs[o.dst] = uint64(int64(ffrom(o.wbits, regs[o.a]))) & o.imm
		case opSIToFP:
			regs[o.dst] = fbits(o.imm, float64(sext(regs[o.a], o.wbits)))
		case opMove:
			regs[o.dst] = regs[o.a]

		case opLoad:
			x, err := e.load(regs[o.a], o.wbits)
			if err != nil {
				return 0, err
			}
			st.Loads++
			regs[o.dst] = x
		case opStore:
			if err := e.store(regs[o.b], o.wbits, regs[o.a]); err != nil {
				return 0, err
			}
			st.Stores++

		case opGEP:
			pl := &fn.geps[o.x]
			addr := regs[o.a]
			for i := range pl.steps {
				s := &pl.steps[i]
				if s.reg < 0 {
					addr += uint64(s.off)
				} else {
					addr += uint64(sext(regs[s.reg], s.sh) * s.scale)
				}
			}
			regs[o.dst] = addr
		case opSelect:
			if regs[o.a] != 0 {
				regs[o.dst] = regs[o.b]
			} else {
				regs[o.dst] = regs[o.c]
			}

		case opSBLoadBase:
			st.MetaLoads++
			st.Cost += cm.SBMetaLoad
			b, _ := e.vm.Trie.Lookup(regs[o.a])
			if o.dst >= 0 {
				regs[o.dst] = b.Base
			}
		case opSBLoadBound:
			st.MetaLoads++
			st.Cost += cm.SBMetaLoad
			b, _ := e.vm.Trie.Lookup(regs[o.a])
			if o.dst >= 0 {
				regs[o.dst] = b.Bound
			}
		case opSBStoreMD:
			e.vm.SBStoreMD(int32(o.imm), regs[o.a], regs[o.b], regs[o.c])
		case opSBCheck:
			if err := e.vm.SBCheck(int32(o.imm), regs[o.a], regs[o.b], regs[o.c], regs[o.d]); err != nil {
				return 0, err
			}

		case opLFBase:
			st.Cost += cm.LFBase
			if o.dst >= 0 {
				regs[o.dst] = lowfat.Base(regs[o.a])
			}
		case opLFCheck:
			if err := e.vm.LFCheck(int32(o.imm), regs[o.a], regs[o.b], regs[o.c]); err != nil {
				return 0, err
			}
		case opLFCheckInv:
			if err := e.vm.LFCheckInv(int32(o.imm), regs[o.a], regs[o.b]); err != nil {
				return 0, err
			}

		case opBr:
			pc = int(o.b)
			continue
		case opCondBr:
			if regs[o.a] != 0 {
				pc = int(o.b)
			} else {
				pc = int(o.c)
			}
			continue
		case opRet:
			if o.a >= 0 {
				return regs[o.a], nil
			}
			return 0, nil

		case opErrInstr:
			return 0, e.rte(pc, fn.errs[o.x].msg)

		case opPhiCopy:
			pl := &fn.phis[o.x]
			if pl.seq {
				for i, d := range pl.dsts {
					regs[d] = regs[pl.srcs[i]]
				}
			} else {
				buf := e.phibuf[:0]
				for _, r := range pl.srcs {
					buf = append(buf, regs[r])
				}
				e.phibuf = buf
				for i, d := range pl.dsts {
					regs[d] = buf[i]
				}
			}
			st.Instrs += uint64(len(pl.dsts))
			pc = int(o.b)
			continue

		case opErrRaw:
			ei := &fn.errs[o.x]
			if !ei.trace {
				return 0, &vm.RuntimeError{Msg: ei.msg}
			}
			return 0, e.rte(pc, ei.msg)

		default:
			if err := e.gate(fn, pc, regs); err != nil {
				return 0, err
			}
		}
		pc++
	}
}

// errNotGate is gate's answer for an opcode outside the gate class.
var errNotGate = errors.New("bytecode: gate on a non-gate opcode")

// gate executes the gate-class op at pc: alloca, dynamic GEP, internal and
// external calls, the shadow-stack ops and the hoisted range checks — the
// ops native code hands back to the host (natClass natGate). The dispatch
// loop reaches it through its default case and the native gate (gateOp)
// calls it directly, each after its own accounting preamble, so these ops
// have one implementation. Any other opcode returns errNotGate.
func (e *Engine) gate(fn *Fn, pc int, regs []uint64) error {
	o := &fn.ops[pc]
	st, cm := e.st, e.cm
	switch o.code {
	case opAlloca:
		count := uint64(1)
		if o.a >= 0 {
			count = regs[o.a]
		}
		size := o.imm * count
		if size == 0 {
			size = 1
		}
		var addr uint64
		if e.lfStack {
			a, lowFat, err := e.vm.LF.StackAlloc(size)
			if err != nil {
				return err
			}
			if !lowFat {
				*e.fb = append(*e.fb, a)
			}
			addr = a
		} else {
			align := uint64(o.x)
			addr = (e.vm.StackPointer() - size) &^ (align - 1)
			if addr < mem.StackLimit {
				return e.rte(pc, "stack overflow")
			}
			e.vm.SetStackPointer(addr)
		}
		e.vm.TrackAlloc(addr, size, o.instr.AllocSite)
		regs[o.dst] = addr

	case opGEPDyn:
		pl := &fn.gepDyns[o.x]
		addr := regs[o.a]
		ty := pl.srcTy
		for i := range pl.idx {
			idx := sext(regs[pl.idx[i].reg], pl.idx[i].sh)
			if i == 0 {
				addr += uint64(idx * int64(ty.Size()))
				continue
			}
			switch ty.Kind {
			case ir.ArrayKind:
				ty = ty.Elem
				addr += uint64(idx * int64(ty.Size()))
			case ir.StructKind:
				addr += uint64(ty.FieldOffset(int(idx)))
				ty = ty.Fields[idx]
			}
		}
		regs[o.dst] = addr

	case opCallInt:
		ic := &fn.intCalls[o.x]
		argv := make([]uint64, len(ic.args))
		for i, r := range ic.args {
			argv[i] = regs[r]
		}
		e.frames[len(e.frames)-1].pc = pc
		ret, err := e.call(ic.fn, argv)
		if err != nil {
			return err
		}
		if o.dst >= 0 {
			regs[o.dst] = ret
		}
	case opCallExt:
		ec := &fn.extCalls[o.x]
		h := e.vm.External(ec.name)
		if h == nil {
			return e.rte(pc, "call to unknown external @"+ec.name)
		}
		argv := make([]uint64, len(ec.args))
		for i, r := range ec.args {
			argv[i] = regs[r]
		}
		e.frames[len(e.frames)-1].pc = pc
		ret, err := h(e.vm, ec.instr, argv)
		if err != nil {
			return err
		}
		if o.dst >= 0 {
			regs[o.dst] = ret
		}

	case opSBSSAlloc, opSBSSSetArg, opSBSSArgBase, opSBSSArgBound,
		opSBSSSetRet, opSBSSRetBase, opSBSSRetBound, opSBSSPop:
		st.ShadowOps++
		st.Cost += cm.SBShadowOp
		sh := e.vm.Shadow
		switch o.code {
		case opSBSSAlloc:
			sh.AllocateFrame(int(regs[o.a]))
		case opSBSSSetArg:
			sh.SetArg(int(regs[o.a]), softbound.Bounds{Base: regs[o.b], Bound: regs[o.c]})
		case opSBSSArgBase:
			if b := sh.Arg(int(regs[o.a])); o.dst >= 0 {
				regs[o.dst] = b.Base
			}
		case opSBSSArgBound:
			if b := sh.Arg(int(regs[o.a])); o.dst >= 0 {
				regs[o.dst] = b.Bound
			}
		case opSBSSSetRet:
			sh.SetRet(softbound.Bounds{Base: regs[o.a], Bound: regs[o.b]})
		case opSBSSRetBase:
			if o.dst >= 0 {
				regs[o.dst] = sh.Ret().Base
			}
		case opSBSSRetBound:
			if o.dst >= 0 {
				regs[o.dst] = sh.Ret().Bound
			}
		case opSBSSPop:
			sh.PopFrame()
		}

	case opSBCheckRange:
		return e.vm.SBCheckRange(int32(o.imm), regs[o.a], regs[o.b], regs[o.x], regs[o.c], regs[o.d], regs[o.dst])
	case opLFCheckRange:
		return e.vm.LFCheckRange(int32(o.imm), regs[o.a], regs[o.b], regs[o.x], regs[o.c], regs[o.dst])

	default:
		return errNotGate
	}
	return nil
}

// stepEvent handles a step at the op at pc that reached the step limit or a
// multiple of vm.InterruptStride: it raises the step-limit error, or reports
// a raised interrupt as the reference interpreter's poll does.
func (e *Engine) stepEvent(pc int) error {
	if e.env.Cnt[cntSteps] > e.env.Cnt[cntMaxSteps] {
		return e.rte(pc, "step limit exceeded")
	}
	if r := e.intr.Raised(); r != vm.IntrNone {
		return &vm.InterruptError{Reason: r, Steps: e.env.Cnt[cntSteps]}
	}
	return nil
}
