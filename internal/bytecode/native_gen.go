package bytecode

import (
	"cmp"
	"slices"
	"strconv"
	"sync"

	"repro/internal/vm"
)

// The native tier's code generator.
//
// natGenerate lowers a compiled Program to the source of a Go plugin: one Go
// function per bytecode function, with
//
//   - registers as Go locals (real register allocation instead of a []uint64
//     round-trip per operand),
//   - blocks as labels and branches as direct gotos (no dispatch at all),
//   - statistics batched per accounting run: steps, instruction count, cost
//     and the static check/memory counters commit once per batch with
//     constant adds, straight into the engine's step count and the VM's
//     vm.Stats (through the env's view, copied into the local st in each
//     function's prologue); fault paths subtract the statically known
//     accounting of the batch suffix the interpreter would not have
//     executed, so vm.Stats is bit-identical at every observable stop point,
//   - the page-cache memory fast path, SoftBound bounds checks and Low-Fat
//     region arithmetic inlined with compile-time constants (widths, masks,
//     cost-model charges),
//   - everything rare routed through host closures (natEnv): calls, allocas,
//     shadow-stack ops, range checks, dynamic GEPs via the one-op gate, and
//     fault construction via dedicated error callbacks.
//
// Exactness: every engine polls the interrupt flag when its step count
// reaches a multiple of vm.InterruptStride. A batch of n steps only commits
// after proving the step limit is not reachable inside it and, when it
// crosses a multiple (steps%stride + n >= stride; n <= natBatchMaxSteps <
// stride allows at most one), polling once via the callback; when the limit
// is in reach or the flag is raised the function bails out to the generic
// interpreter at a valid op boundary, which then replays the ops one at a
// time with the exact per-op preamble — so step-limit faults and interrupt
// observations land on exactly the op, and with exactly the statistics, the
// reference interpreter reports.
//
// Native code is entered only at a function's first op, so a generated
// function loads just its parameters and constants from the register file
// and starts every other register at zero, as the interpreter does. A bail
// ends the run within one batch, so the rest of that invocation finishes on
// the interpreter and never re-enters native code. Each bailing batch start
// jumps to its own stub, which spills only the written registers live there
// (bailLive), so a bail edge keeps no other register alive across the
// function.
//
// Generation runs on every bind, cache hits included, because the source is
// the plugin's cache key. It therefore appends into one pooled buffer through
// a formatter that knows only the verbs it needs (natGen.appendf) and keeps
// its per-register and per-pc marks in reused slices, so a bind allocates
// little more than the returned source.

// natEnvDecl must stay byte-identical (modulo the alias name) to the natEnv
// declaration in native_env.go: the plugin and the host assert type identity
// structurally on this unnamed struct.
const natEnvDecl = `type env = struct {
	Cnt    [4]uint64
	Stats  *[14]uint64
	PageID [512]uint64
	Pages  [512]*[65536]byte
	Sites  []uint64

	Poll       func() uint64
	PageFor    func(uint64) (*[65536]byte, error)
	SlowLoad   func(uint64, uint64) (uint64, error)
	SlowStore  func(uint64, uint64, uint64) error
	TrieLookup func(uint64) (uint64, uint64)
	TrieStore  func(uint64, uint64, uint64)
	SBFail     func(uint64, uint64, uint64, uint64) error
	LFFail     func(uint64, uint64, uint64, uint64) error
	Rte        func(uint64) error
	Gate       func(uint64, []uint64) error
}
`

// natContrib is the statically known statistics contribution of one op (or a
// batch of ops): the vm.Stats deltas. Every counted op is one instruction,
// so the instruction count (in) is also the counted-step total. For
// profiled programs, sites holds the site contribution of each op in the
// batch (id 0 for an op without one; wide counts are dynamic and bump
// inline); they commit and roll back with the same suffix discipline as the
// vm.Stats words, matching the interpreter's bump-before-check order — a
// fault at a check keeps that op's own site commit.
type natContrib struct {
	in, co, ld, sr, ck, iv, ml, ms uint64
	sites                          []natSiteContrib
}

// natSiteContrib is one site's static contribution: ex executions charging
// co abstract cost in total.
type natSiteContrib struct {
	id, ex, co uint64
}

// add accumulates d's counters; the caller sets the sites view.
func (c *natContrib) add(d natContrib) {
	c.in += d.in
	c.co += d.co
	c.ld += d.ld
	c.sr += d.sr
	c.ck += d.ck
	c.iv += d.iv
	c.ml += d.ml
	c.ms += d.ms
}

// Op classes for block construction.
const (
	natInline = iota
	natGate
	natTerm
	natUnsupported
)

func natClass(code opcode) int {
	switch code {
	case opAdd, opSub, opMul, opSDiv, opSRem, opUDiv, opURem, opAnd, opOr, opXor,
		opShl, opLShr, opAShr,
		opFAdd, opFSub, opFMul, opFDiv,
		opEQ, opNE, opSLT, opSLE, opSGT, opSGE, opULT, opULE, opUGT, opUGE,
		opFOEQ, opFONE, opFOLT, opFOLE, opFOGT, opFOGE,
		opTrunc, opSExt, opFPCvt, opFPToSI, opSIToFP, opMove,
		opLoad, opStore, opGEP, opSelect,
		opSBLoadBase, opSBLoadBound, opSBStoreMD, opSBCheck,
		opLFBase, opLFCheck, opLFCheckInv:
		return natInline
	case opAlloca, opGEPDyn, opCallInt, opCallExt,
		opSBSSAlloc, opSBSSSetArg, opSBSSArgBase, opSBSSArgBound,
		opSBSSSetRet, opSBSSRetBase, opSBSSRetBound, opSBSSPop,
		opSBCheckRange, opLFCheckRange:
		return natGate
	case opBr, opCondBr, opRet, opErrInstr, opPhiCopy, opErrRaw:
		return natTerm
	}
	return natUnsupported
}

// natGateIO appends the registers the gate handler for o reads and writes to
// reads and writes (the generated code spills reads before the call and
// reloads writes after).
func natGateIO(fn *Fn, o *op, reads, writes []int32) ([]int32, []int32, bool) {
	addDst := func() {
		if o.dst >= 0 {
			writes = append(writes, o.dst)
		}
	}
	switch o.code {
	case opAlloca:
		if o.a >= 0 {
			reads = append(reads, o.a)
		}
		addDst()
	case opGEPDyn:
		reads = append(reads, o.a)
		for _, ix := range fn.gepDyns[o.x].idx {
			reads = append(reads, ix.reg)
		}
		addDst()
	case opCallInt:
		reads = append(reads, fn.intCalls[o.x].args...)
		addDst()
	case opCallExt:
		reads = append(reads, fn.extCalls[o.x].args...)
		addDst()
	case opSBSSAlloc:
		reads = append(reads, o.a)
	case opSBSSSetArg:
		reads = append(reads, o.a, o.b, o.c)
	case opSBSSArgBase, opSBSSArgBound:
		reads = append(reads, o.a)
		addDst()
	case opSBSSSetRet:
		reads = append(reads, o.a, o.b)
	case opSBSSRetBase, opSBSSRetBound:
		addDst()
	case opSBSSPop:
	case opSBCheckRange:
		reads = append(reads, o.a, o.b, o.x, o.c, o.d, o.dst)
	case opLFCheckRange:
		reads = append(reads, o.a, o.b, o.x, o.c, o.dst)
	default:
		return reads, writes, false
	}
	return reads, writes, true
}

// natContribOf computes the static accounting of one inline or terminator
// op, and, in a profiled program, the site it commits to (id 0 for none).
func natContribOf(cm *vm.CostModel, prof bool, o *op) (natContrib, natSiteContrib) {
	if o.code >= opUncountedStart {
		return natContrib{}, natSiteContrib{} // PhiCopy/ErrRaw account for themselves
	}
	c := natContrib{in: 1, co: o.cost}
	switch o.code {
	case opLoad:
		c.ld = 1
	case opStore:
		c.sr = 1
	case opSBLoadBase, opSBLoadBound:
		c.ml, c.co = 1, c.co+cm.SBMetaLoad
	case opSBStoreMD:
		c.ms, c.co = 1, c.co+cm.SBMetaStore
	case opSBCheck:
		c.ck, c.co = 1, c.co+cm.SBCheck
	case opLFCheck:
		c.ck, c.co = 1, c.co+cm.LFCheck
	case opLFCheckInv:
		c.iv, c.co = 1, c.co+cm.LFCheck
	case opLFBase:
		c.co += cm.LFBase
	}
	// The ops the interpreter bumps a site for commit it here too. Site 0
	// means "no site", mirroring the VM's bumpSite.
	var s natSiteContrib
	if !prof {
		return c, s
	}
	switch o.code {
	case opSBStoreMD:
		s = natSiteContrib{id: o.imm, ex: 1, co: cm.SBMetaStore}
	case opSBCheck:
		s = natSiteContrib{id: o.imm, ex: 1, co: cm.SBCheck}
	case opLFCheck, opLFCheckInv:
		s = natSiteContrib{id: o.imm, ex: 1, co: cm.LFCheck}
	}
	return c, s
}

// Typed operands of natGen.appendf, each rendering one generated-code
// fragment straight into the buffer.
type (
	// natReg renders the local of a register.
	natReg int32
	// natSX renders the sign-extension the interpreter's sext(v, sh)
	// performs on a register.
	natSX struct {
		r  natReg
		sh uint8
	}
	// natFF renders the interpreter's ffrom of a register at a constant
	// width.
	natFF struct {
		wbits uint8
		r     natReg
	}
	// natWide renders the wide-bounds elision bumps of a check at a site:
	// vm.Stats.WideChecks, plus the profiled site's Wide word when the check
	// carries a site. Wide counts are data-dependent, so they commit inline
	// rather than in the batch statics.
	natWide uint64
	// natSlotOf renders the page-cache slot of the scoped temporary pn<t>.
	natSlotOf int
)

// natFBOpen opens the interpreter's fbits at a constant width; the caller
// renders the float expression and the closing parenthesis.
func natFBOpen(bits uint64) string {
	if bits == 32 {
		return "b32("
	}
	return "math.Float64bits("
}

// natSlotExpr appends the page-cache slot of the page id held in pn: natSlot
// spelled in generated Go.
func natSlotExpr(b, pn []byte) []byte {
	b = append(b, '(')
	b = append(b, pn...)
	b = append(b, " ^ "...)
	b = append(b, pn...)
	b = append(b, ">>16 ^ "...)
	b = append(b, pn...)
	b = append(b, ">>20) & "...)
	return strconv.AppendInt(b, natPageWays-1, 10)
}

// natGen is the generator's state: the plugin source being built and the
// per-function scratch. natGenerate takes one from natGenPool, so
// concurrent binds never share one and sequential binds reuse its buffers.
type natGen struct {
	b   []byte // the plugin source
	hdr []byte // a function's register declarations, inserted before its body
	tab []byte // the Fns table, inserted before the functions

	fn   *Fn
	cm   *vm.CostModel
	prof bool // the program is site-profiled: checks commit their sites
	// used and written mark, per register of fn, the locals the body reads
	// or writes (only written locals can need a spill on bail-out).
	used, written []bool
	lead          []bool // per pc of fn: a block leader
	target        []bool // per pc of fn: a branch target, the only labels emitted
	leaders       []int

	units     []int // the pending accounting batch of emitBlock
	steps     uint64
	contribs  []natContrib
	suffix    []natContrib
	unitSites []natSiteContrib
	siteTmp   []natSiteContrib
	reads     []int32
	writes    []int32
	regsUsed  []natReg

	// pc is the op being emitted; marks records, in emission order, every
	// register each op's code reads or writes — the liveness analysis of
	// the bail stubs reads them back (bailLive).
	pc    int
	marks []natMark
	// bailAt marks, per pc of fn, the batch starts that can bail out.
	bailAt []bool

	// Liveness scratch (bailLive): dense indices of the written registers,
	// per-pc mark ranges, and per-block bitsets over the dense indices.
	dense     []int32
	denseRegs []natReg
	markAt    []int32
	sorted    []natMark
	gen, kill []uint64
	liveIn    []uint64
	live      []uint64
	stubs     []uint64 // one row per bail pc: the live written registers
	stubAt    []int32  // per pc: 1 + its row in stubs, 0 for none

	ok  bool
	tmp int // unique suffix for scoped temporaries
}

// natMark is one register an op's code reads or (w) writes.
type natMark struct {
	pc, reg int32
	w       bool
}

var natGenPool = sync.Pool{New: func() any { return new(natGen) }}

// natResize returns s with length n and every element zero, reusing its
// backing array when large enough.
func natResize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// pf appends formatted source to the plugin buffer.
func (g *natGen) pf(format string, args ...any) { g.b = g.appendf(g.b, format, args...) }

// appendf appends format to b with each verb replaced by the next argument.
// It knows only the verbs the generator uses: %s for strings and the typed
// operands above, %d and %x (always written 0x%x) for integers, and %% for a
// literal percent sign. No argument escapes, so rendering allocates nothing
// beyond growing b.
func (g *natGen) appendf(b []byte, format string, args ...any) []byte {
	ai := 0
	for {
		i := 0
		for i < len(format) && format[i] != '%' {
			i++
		}
		b = append(b, format[:i]...)
		if i == len(format) {
			return b
		}
		base := 10
		switch format[i+1] {
		case '%':
			b = append(b, '%')
			format = format[i+2:]
			continue
		case 'x':
			base = 16
		}
		format = format[i+2:]
		switch a := args[ai].(type) {
		case string:
			b = append(b, a...)
		case int:
			b = strconv.AppendInt(b, int64(a), base)
		case int32:
			b = strconv.AppendInt(b, int64(a), base)
		case int64:
			b = strconv.AppendInt(b, a, base)
		case uint8:
			b = strconv.AppendUint(b, uint64(a), base)
		case uint64:
			b = strconv.AppendUint(b, a, base)
		case natReg:
			b = natAppendReg(b, a)
		case natSX:
			if a.sh == 0 {
				b = append(natAppendReg(append(b, "int64("...), a.r), ')')
			} else {
				b = natAppendReg(append(b, "(int64(("...), a.r)
				b = strconv.AppendUint(append(b, ")<<"...), uint64(a.sh), 10)
				b = strconv.AppendUint(append(b, ") >> "...), uint64(a.sh), 10)
				b = append(b, ')')
			}
		case natFF:
			if a.wbits == 32 {
				b = append(b, "f32("...)
			} else {
				b = append(b, "math.Float64frombits("...)
			}
			b = append(natAppendReg(b, a.r), ')')
		case natWide:
			b = natAppendAdj(b, "st", stWide, "++", 0)
			if a != 0 {
				b = natAppendAdj(b, "ev.Sites", uint64(a)*natSiteWords+natSiteWide, "++", 0)
			}
		case natSlotOf:
			var pn [24]byte
			b = natSlotExpr(b, strconv.AppendInt(append(pn[:0], "pn"...), int64(a), 10))
		case natContrib:
			b = g.appendRB(b, a)
		default:
			panic("bytecode: native generator: unsupported operand")
		}
		ai++
	}
}

// appendRB appends the fault rollback for a statically known unearned
// contribution.
func (g *natGen) appendRB(b []byte, c natContrib) []byte {
	for _, d := range [...]struct{ idx, v uint64 }{
		{stInstrs, c.in}, {stCost, c.co}, {stLoads, c.ld}, {stStores, c.sr},
		{stChecks, c.ck}, {stInv, c.iv}, {stMetaLoads, c.ml}, {stMetaStores, c.ms},
	} {
		if d.v != 0 {
			b = natAppendAdj(b, "st", d.idx, " -= ", d.v)
		}
	}
	for _, s := range g.siteTotals(c.sites) {
		b = natAppendAdj(b, "ev.Sites", s.id*natSiteWords+natSiteExecs, " -= ", s.ex)
		if s.co != 0 {
			b = natAppendAdj(b, "ev.Sites", s.id*natSiteWords+natSiteCost, " -= ", s.co)
		}
	}
	return b
}

// natAppendReg appends the local of register r.
func natAppendReg(b []byte, r natReg) []byte {
	return strconv.AppendInt(append(b, 'r'), int64(r), 10)
}

// natAppendAdj appends the statement arr[idx]<op>, followed by v unless op
// is "++".
func natAppendAdj(b []byte, arr string, idx uint64, op string, v uint64) []byte {
	b = strconv.AppendUint(append(append(b, arr...), '['), idx, 10)
	b = append(append(b, ']'), op...)
	if op != "++" {
		b = strconv.AppendUint(b, v, 10)
	}
	return append(b, '\n')
}

// siteTotals merges per-op site contributions by id, ordered by id, so the
// rendered commits and rollbacks are deterministic. The result lives in
// scratch reused by the next call.
func (g *natGen) siteTotals(sites []natSiteContrib) []natSiteContrib {
	t := g.siteTmp[:0]
	for _, s := range sites {
		if s.id != 0 {
			t = append(t, s)
		}
	}
	slices.SortFunc(t, func(a, b natSiteContrib) int { return cmp.Compare(a.id, b.id) })
	n := 0
	for _, s := range t {
		if n > 0 && t[n-1].id == s.id {
			t[n-1].ex += s.ex
			t[n-1].co += s.co
			continue
		}
		t[n] = s
		n++
	}
	g.siteTmp = t
	return t[:n]
}

// r names a register local the op being emitted reads, marking it used; w
// names one it writes, marking it used and written.
func (g *natGen) r(i int32) natReg {
	g.used[i] = true
	g.marks = append(g.marks, natMark{pc: int32(g.pc), reg: i})
	return natReg(i)
}

func (g *natGen) w(i int32) natReg {
	g.used[i] = true
	g.written[i] = true
	g.marks = append(g.marks, natMark{pc: int32(g.pc), reg: i, w: true})
	return natReg(i)
}

// findLeaders computes block-leader pcs: entry, branch targets, and the op
// after every terminator.
func (g *natGen) findLeaders() {
	ops := g.fn.ops
	n := len(ops)
	g.lead = natResize(g.lead, n)
	g.target = natResize(g.target, n)
	mark := func(t int32) {
		if t < 0 || int(t) >= n {
			g.ok = false
			return
		}
		g.lead[t] = true
		g.target[t] = true
	}
	for i := range ops {
		o := &ops[i]
		switch o.code {
		case opBr, opPhiCopy:
			mark(o.b)
		case opCondBr:
			mark(o.b)
			mark(o.c)
		case opRet, opErrInstr, opErrRaw:
		default:
			continue
		}
		if i+1 < n {
			g.lead[i+1] = true
		}
	}
	g.leaders = append(g.leaders[:0], 0)
	for pc := 1; pc < n; pc++ {
		if g.lead[pc] {
			g.leaders = append(g.leaders, pc)
		}
	}
}

// flush emits the pending batch, if any.
func (g *natGen) flush() {
	if len(g.units) > 0 {
		g.emitBatch(g.units)
		g.units = g.units[:0]
		g.steps = 0
	}
}

func (g *natGen) emitBatch(units []int) {
	ops := g.fn.ops
	n := len(units)
	g.contribs = natResize(g.contribs, n)
	g.unitSites = natResize(g.unitSites, n)
	var tot natContrib
	for j, pc := range units {
		g.contribs[j], g.unitSites[j] = natContribOf(g.cm, g.prof, &ops[pc])
		tot.add(g.contribs[j])
	}
	pc0 := units[0]
	if tot.in > 0 {
		g.bailAt[pc0] = true
		g.pf("if ev.Cnt[%d]+%d > ev.Cnt[%d] {\ngoto bail%d\n}\n", cntSteps, tot.in, cntMaxSteps, pc0)
		g.pf("if ev.Cnt[%d]%%%d >= %d && ev.Poll() != 0 {\ngoto bail%d\n}\n",
			cntSteps, vm.InterruptStride, vm.InterruptStride-tot.in, pc0)
		g.pf("ev.Cnt[%d] += %d\n", cntSteps, tot.in)
	}
	addC := func(idx, v uint64) {
		if v != 0 {
			g.pf("st[%d] += %d\n", idx, v)
		}
	}
	addC(stInstrs, tot.in)
	addC(stCost, tot.co)
	addC(stLoads, tot.ld)
	addC(stStores, tot.sr)
	addC(stChecks, tot.ck)
	addC(stInv, tot.iv)
	addC(stMetaLoads, tot.ml)
	addC(stMetaStores, tot.ms)
	for _, s := range g.siteTotals(g.unitSites) {
		g.pf("ev.Sites[%d] += %d\n", s.id*natSiteWords+natSiteExecs, s.ex)
		if s.co != 0 {
			g.pf("ev.Sites[%d] += %d\n", s.id*natSiteWords+natSiteCost, s.co)
		}
	}

	// suffix[j] is the batch accounting from unit j on; a fault at unit j
	// rolls back suffix[j+1] (plus the unit's own unearned part).
	g.suffix = natResize(g.suffix, n+1)
	for j := n - 1; j >= 0; j-- {
		g.suffix[j] = g.suffix[j+1]
		g.suffix[j].add(g.contribs[j])
		g.suffix[j].sites = g.unitSites[j:]
	}
	for j, pc := range units {
		g.emitOp(pc, g.suffix[j+1])
		if !g.ok {
			return
		}
	}
}

// emitAccess renders the interpreter's load/store fast path (page cache,
// null guard, in-page aligned width) with the slow path delegated to the
// address space. rb is the rollback owed if the access faults.
func (g *natGen) emitAccess(isLoad bool, addr natReg, width uint8, val natReg, rb natContrib) {
	t := g.tmp
	g.tmp++
	wide := width == 1 || width == 2 || width == 4 || width == 8
	g.pf("{\na%d := %s\n", t, addr)
	slow := func() {
		if isLoad {
			g.pf("v%d, err%d := ev.SlowLoad(a%d, %d)\nif err%d != nil {\n%sreturn 0, err%d\n}\n%s = v%d\n", t, t, t, width, t, rb, t, val, t)
		} else {
			g.pf("if err%d := ev.SlowStore(a%d, %d, %s); err%d != nil {\n%sreturn 0, err%d\n}\n", t, t, width, val, t, rb, t)
		}
	}
	if !wide {
		slow()
		g.pf("}\n")
		return
	}
	g.pf("if a%d >= %d && a%d&%d <= %d && a%d+%d > a%d {\n", t, 1<<20, t, 65535, 65536-int(width), t, width, t)
	g.pf("pn%d := a%d>>16 + 1\ns%d := %s\n", t, t, t, natSlotOf(t))
	g.pf("if ev.PageID[s%d] != pn%d {\npg%d, err%d := ev.PageFor(a%d)\nif err%d != nil {\n%sreturn 0, err%d\n}\nev.Pages[s%d] = pg%d\nev.PageID[s%d] = pn%d\n}\n",
		t, t, t, t, t, t, rb, t, t, t, t, t)
	if isLoad {
		switch width {
		case 8:
			g.pf("%s = binary.LittleEndian.Uint64(ev.Pages[s%d][a%d&65535:])\n", val, t, t)
		case 4:
			g.pf("%s = uint64(binary.LittleEndian.Uint32(ev.Pages[s%d][a%d&65535:]))\n", val, t, t)
		case 2:
			g.pf("%s = uint64(binary.LittleEndian.Uint16(ev.Pages[s%d][a%d&65535:]))\n", val, t, t)
		case 1:
			g.pf("%s = uint64(ev.Pages[s%d][a%d&65535])\n", val, t, t)
		}
	} else {
		switch width {
		case 8:
			g.pf("binary.LittleEndian.PutUint64(ev.Pages[s%d][a%d&65535:], %s)\n", t, t, val)
		case 4:
			g.pf("binary.LittleEndian.PutUint32(ev.Pages[s%d][a%d&65535:], uint32(%s))\n", t, t, val)
		case 2:
			g.pf("binary.LittleEndian.PutUint16(ev.Pages[s%d][a%d&65535:], uint16(%s))\n", t, t, val)
		case 1:
			g.pf("ev.Pages[s%d][a%d&65535] = byte(%s)\n", t, t, val)
		}
	}
	g.pf("} else {\n")
	slow()
	g.pf("}\n}\n")
}

// emitSBCheck renders the SoftBound bounds check (Figure 2): wide-bounds
// elision bumps WideChecks, a violation rolls back rb and fails through the
// host error constructor. Checks/cost (and the site's Execs/Cost for
// profiled checks) are already in the batch statics; the interpreter bumps
// the site before raising a violation, so rb never includes the check's own
// site contribution.
func (g *natGen) emitSBCheck(ptr, wd, base, bound natReg, rb natContrib, site uint64) {
	g.pf("if %s == 0 && %s == 0x%x {\n%s} else if !(%s >= %s && %s+%s <= %s && %s+%s >= %s) {\n%sreturn 0, ev.SBFail(%s, %s, %s, %s)\n}\n",
		base, bound, ^uint64(0), natWide(site), ptr, base, ptr, wd, bound, ptr, wd, ptr, rb, ptr, wd, base, bound)
}

// emitLFCheck renders the Low-Fat check (Figure 5): region decode, size
// table as a shift, unsigned offset comparison.
func (g *natGen) emitLFCheck(ptr, wd, base natReg, rb natContrib, site uint64) {
	t := g.tmp
	g.tmp++
	g.pf("{\nri%d := %s >> 35\nif ri%d < 1 || ri%d > 27 {\n%s} else {\nsz%d := uint64(16) << (ri%d - 1)\nw%d := %s\nif w%d == 0 {\nw%d = 1\n}\nif %s-%s > sz%d-w%d {\n%sreturn 0, ev.LFFail(0, %s, %s, %s)\n}\n}\n}\n",
		t, base, t, t, natWide(site), t, t, t, wd, t, t, ptr, base, t, t, rb, ptr, wd, base)
}

// natOpSym is the Go operator of an arithmetic or comparison opcode.
func natOpSym(code opcode) string {
	switch code {
	case opFAdd:
		return "+"
	case opFSub:
		return "-"
	case opFMul:
		return "*"
	case opFDiv:
		return "/"
	case opEQ, opFOEQ:
		return "=="
	case opNE, opFONE:
		return "!="
	case opULT, opSLT, opFOLT:
		return "<"
	case opULE, opSLE, opFOLE:
		return "<="
	case opUGT, opSGT, opFOGT:
		return ">"
	case opUGE, opSGE, opFOGE:
		return ">="
	}
	panic("bytecode: native generator: no operator for opcode")
}

func (g *natGen) emitOp(pc int, suf natContrib) {
	g.pc = pc
	fn := g.fn
	o := &fn.ops[pc]
	switch o.code {
	case opAdd:
		g.pf("%s = (%s + %s) & 0x%x\n", g.w(o.dst), g.r(o.a), g.r(o.b), o.imm)
	case opSub:
		g.pf("%s = (%s - %s) & 0x%x\n", g.w(o.dst), g.r(o.a), g.r(o.b), o.imm)
	case opMul:
		g.pf("%s = (%s * %s) & 0x%x\n", g.w(o.dst), g.r(o.a), g.r(o.b), o.imm)
	case opSDiv, opSRem:
		t := g.tmp
		g.tmp++
		op := "/"
		if o.code == opSRem {
			op = "%"
		}
		g.pf("{\nd%d := %s\nif d%d == 0 {\n%sreturn 0, ev.Rte(%d)\n}\n%s = uint64(%s %s d%d) & 0x%x\n}\n",
			t, natSX{g.r(o.b), o.wbits}, t, suf, pc, g.w(o.dst), natSX{g.r(o.a), o.wbits}, op, t, o.imm)
	case opUDiv, opURem:
		t := g.tmp
		g.tmp++
		op := "/"
		if o.code == opURem {
			op = "%"
		}
		g.pf("{\nd%d := %s & 0x%x\nif d%d == 0 {\n%sreturn 0, ev.Rte(%d)\n}\n%s = ((%s & 0x%x) %s d%d) & 0x%x\n}\n",
			t, g.r(o.b), o.imm, t, suf, pc, g.w(o.dst), g.r(o.a), o.imm, op, t, o.imm)
	case opAnd:
		g.pf("%s = (%s & %s) & 0x%x\n", g.w(o.dst), g.r(o.a), g.r(o.b), o.imm)
	case opOr:
		g.pf("%s = (%s | %s) & 0x%x\n", g.w(o.dst), g.r(o.a), g.r(o.b), o.imm)
	case opXor:
		g.pf("%s = (%s ^ %s) & 0x%x\n", g.w(o.dst), g.r(o.a), g.r(o.b), o.imm)
	case opShl:
		t := g.tmp
		g.tmp++
		g.pf("{\ns%d := %s & %d\n%s = (%s << s%d) & 0x%x\n}\n", t, g.r(o.b), o.x, g.w(o.dst), g.r(o.a), t, o.imm)
	case opLShr:
		t := g.tmp
		g.tmp++
		g.pf("{\ns%d := %s & %d\n%s = (%s & 0x%x) >> s%d\n}\n", t, g.r(o.b), o.x, g.w(o.dst), g.r(o.a), o.imm, t)
	case opAShr:
		t := g.tmp
		g.tmp++
		g.pf("{\ns%d := %s & %d\n%s = uint64(%s>>s%d) & 0x%x\n}\n", t, g.r(o.b), o.x, g.w(o.dst), natSX{g.r(o.a), o.wbits}, t, o.imm)

	case opFAdd, opFSub, opFMul, opFDiv:
		if o.wbits != 32 && o.wbits != 64 {
			g.ok = false
			return
		}
		g.pf("%s = %s%s %s %s)\n", g.w(o.dst), natFBOpen(uint64(o.wbits)),
			natFF{o.wbits, g.r(o.a)}, natOpSym(o.code), natFF{o.wbits, g.r(o.b)})

	case opEQ, opNE, opULT, opULE, opUGT, opUGE:
		g.pf("if %s&0x%x %s %s&0x%x {\n%s = 1\n} else {\n%s = 0\n}\n", g.r(o.a), o.imm, natOpSym(o.code), g.r(o.b), o.imm, g.w(o.dst), g.w(o.dst))
	case opSLT, opSLE, opSGT, opSGE:
		g.pf("if %s %s %s {\n%s = 1\n} else {\n%s = 0\n}\n", natSX{g.r(o.a), o.wbits}, natOpSym(o.code), natSX{g.r(o.b), o.wbits}, g.w(o.dst), g.w(o.dst))
	case opFOEQ, opFONE, opFOLT, opFOLE, opFOGT, opFOGE:
		if o.wbits != 32 && o.wbits != 64 {
			g.ok = false
			return
		}
		g.pf("if %s %s %s {\n%s = 1\n} else {\n%s = 0\n}\n", natFF{o.wbits, g.r(o.a)}, natOpSym(o.code), natFF{o.wbits, g.r(o.b)}, g.w(o.dst), g.w(o.dst))

	case opTrunc:
		g.pf("%s = %s & 0x%x\n", g.w(o.dst), g.r(o.a), o.imm)
	case opSExt:
		g.pf("%s = uint64(%s) & 0x%x\n", g.w(o.dst), natSX{g.r(o.a), o.wbits}, o.imm)
	case opFPCvt:
		if (o.wbits != 32 && o.wbits != 64) || (o.imm != 32 && o.imm != 64) {
			g.ok = false
			return
		}
		g.pf("%s = %s%s)\n", g.w(o.dst), natFBOpen(o.imm), natFF{o.wbits, g.r(o.a)})
	case opFPToSI:
		if o.wbits != 32 && o.wbits != 64 {
			g.ok = false
			return
		}
		g.pf("%s = uint64(int64(%s)) & 0x%x\n", g.w(o.dst), natFF{o.wbits, g.r(o.a)}, o.imm)
	case opSIToFP:
		if o.imm != 32 && o.imm != 64 {
			g.ok = false
			return
		}
		g.pf("%s = %sfloat64(%s))\n", g.w(o.dst), natFBOpen(o.imm), natSX{g.r(o.a), o.wbits})
	case opMove:
		g.pf("%s = %s\n", g.w(o.dst), g.r(o.a))

	case opLoad:
		sufL := suf
		sufL.ld++
		g.emitAccess(true, g.r(o.a), o.wbits, g.w(o.dst), sufL)
	case opStore:
		sufS := suf
		sufS.sr++
		g.emitAccess(false, g.r(o.b), o.wbits, g.r(o.a), sufS)

	case opGEP:
		pl := &fn.geps[o.x]
		var off uint64
		for i := range pl.steps {
			if s := &pl.steps[i]; s.reg < 0 {
				off += uint64(s.off)
			}
		}
		g.pf("%s = %s", g.w(o.dst), g.r(o.a))
		if off != 0 {
			g.pf(" + 0x%x", off)
		}
		for i := range pl.steps {
			if s := &pl.steps[i]; s.reg >= 0 {
				g.pf(" + uint64(%s*%d)", natSX{g.r(s.reg), s.sh}, s.scale)
			}
		}
		g.pf("\n")

	case opSelect:
		g.pf("if %s != 0 {\n%s = %s\n} else {\n%s = %s\n}\n", g.r(o.a), g.w(o.dst), g.r(o.b), g.w(o.dst), g.r(o.c))

	case opSBLoadBase:
		if o.dst >= 0 {
			t := g.tmp
			g.tmp++
			g.pf("{\nb%d, _ := ev.TrieLookup(%s)\n%s = b%d\n}\n", t, g.r(o.a), g.w(o.dst), t)
		}
	case opSBLoadBound:
		if o.dst >= 0 {
			t := g.tmp
			g.tmp++
			g.pf("{\n_, b%d := ev.TrieLookup(%s)\n%s = b%d\n}\n", t, g.r(o.a), g.w(o.dst), t)
		}
	case opSBStoreMD:
		g.pf("ev.TrieStore(%s, %s, %s)\n", g.r(o.a), g.r(o.b), g.r(o.c))
	case opSBCheck:
		g.emitSBCheck(g.r(o.a), g.r(o.b), g.r(o.c), g.r(o.d), suf, g.site(o))

	case opLFBase:
		if o.dst >= 0 {
			t := g.tmp
			g.tmp++
			g.pf("{\nri%d := %s >> 35\nif ri%d < 1 || ri%d > 27 {\n%s = 0\n} else {\n%s = %s &^ ((uint64(16) << (ri%d - 1)) - 1)\n}\n}\n",
				t, g.r(o.a), t, t, g.w(o.dst), g.w(o.dst), g.r(o.a), t)
		}
	case opLFCheck:
		g.emitLFCheck(g.r(o.a), g.r(o.b), g.r(o.c), suf, g.site(o))
	case opLFCheckInv:
		t := g.tmp
		g.tmp++
		g.pf("{\nri%d := %s >> 35\nif ri%d >= 1 && ri%d <= 27 {\nsz%d := uint64(16) << (ri%d - 1)\nif %s-%s > sz%d-1 {\n%sreturn 0, ev.LFFail(1, %s, 0, %s)\n}\n}\n}\n",
			t, g.r(o.b), t, t, t, t, g.r(o.a), g.r(o.b), t, suf, g.r(o.a), g.r(o.b))

	case opBr:
		g.pf("goto bb%d\n", o.b)
	case opCondBr:
		g.pf("if %s != 0 {\ngoto bb%d\n}\ngoto bb%d\n", g.r(o.a), o.b, o.c)
	case opRet:
		if o.a >= 0 {
			g.pf("return %s, nil\n", g.r(o.a))
		} else {
			g.pf("return 0, nil\n")
		}
	case opErrInstr, opErrRaw:
		g.pf("return 0, ev.Rte(%d)\n", pc)
	case opPhiCopy:
		pl := &fn.phis[o.x]
		t := g.tmp
		g.tmp++
		g.pf("{\n")
		for i, s := range pl.srcs {
			g.pf("t%d_%d := %s\n", t, i, g.r(s))
		}
		for i, d := range pl.dsts {
			g.pf("%s = t%d_%d\n", g.w(d), t, i)
		}
		g.pf("}\n")
		if n := len(pl.dsts); n > 0 {
			g.pf("st[%d] += %d\n", stInstrs, n)
		}
		g.pf("goto bb%d\n", o.b)

	default:
		g.ok = false
	}
}

// site is the site a check op commits to: its SiteID in a profiled program,
// 0 (none) otherwise.
func (g *natGen) site(o *op) uint64 {
	if g.prof {
		return o.imm
	}
	return 0
}

func (g *natGen) emitGate(pc int) {
	g.pc = pc
	o := &g.fn.ops[pc]
	var ok bool
	g.reads, g.writes, ok = natGateIO(g.fn, o, g.reads[:0], g.writes[:0])
	if !ok {
		g.ok = false
		return
	}
	spills := g.reads[:0]
	for _, r := range g.reads {
		if r >= 0 {
			spills = append(spills, r)
		}
	}
	slices.Sort(spills)
	for _, r := range slices.Compact(spills) {
		g.pf("regs[%d] = %s\n", r, g.r(r))
	}
	t := g.tmp
	g.tmp++
	g.pf("if err%d := ev.Gate(%d, regs); err%d != nil {\nreturn 0, err%d\n}\n", t, pc, t, t)
	for _, r := range g.writes {
		g.pf("%s = regs[%d]\n", g.w(r), r)
	}
}

func (g *natGen) emitBlock(bi int) {
	fn := g.fn
	s := g.leaders[bi]
	e := len(fn.ops)
	if bi+1 < len(g.leaders) {
		e = g.leaders[bi+1]
	}
	switch {
	case s < len(fn.ops) && g.target[s]:
		g.pf("bb%d:\n", s)
	case s != 0:
		return // follows a terminator and nothing branches here: dead code
	}
	for pc := s; pc < e && g.ok; pc++ {
		o := &fn.ops[pc]
		switch natClass(o.code) {
		case natTerm:
			c, _ := natContribOf(g.cm, g.prof, o)
			if g.steps+c.in > natBatchMaxSteps {
				g.flush()
			}
			g.units = append(g.units, pc)
			g.flush()
			return
		case natGate:
			g.flush()
			g.emitGate(pc)
		case natInline:
			c, _ := natContribOf(g.cm, g.prof, o)
			if g.steps+c.in > natBatchMaxSteps {
				g.flush()
			}
			g.units = append(g.units, pc)
			g.steps += c.in
		default:
			g.ok = false
			return
		}
	}
	// Fell through to the next leader without a terminator (a branch
	// target, since every other leader follows a terminator).
	g.flush()
	if e < len(fn.ops) {
		g.pf("goto bb%d\n", e)
	} else {
		g.ok = false
	}
}

// generate appends function idx (g.fn) to the plugin source, reporting
// false — and appending nothing — when the function uses something the
// native tier does not compile; the host falls back to the interpreter for
// it.
func (g *natGen) generate(idx int) bool {
	fn := g.fn
	g.used = natResize(g.used, fn.nregs)
	g.written = natResize(g.written, fn.nregs)
	g.units, g.steps = g.units[:0], 0
	g.marks = g.marks[:0]
	g.bailAt = natResize(g.bailAt, len(fn.ops))
	g.ok, g.tmp = true, 0
	g.findLeaders()
	if !g.ok {
		return false
	}
	start := len(g.b)
	for bi := range g.leaders {
		g.emitBlock(bi)
		if !g.ok {
			g.b = g.b[:start]
			return false
		}
	}

	h := g.appendf(g.hdr[:0], "func fn%d(regs []uint64, ev *env) (uint64, error) {\nst := ev.Stats\n_ = st\n", idx)
	rs := g.regsUsed[:0]
	for r, u := range g.used {
		if u {
			rs = append(rs, natReg(r))
		}
	}
	g.regsUsed = rs
	for _, r := range rs {
		if int(r) < fn.nparams || int(r) >= fn.constBase {
			h = g.appendf(h, "%s := regs[%d]\n", r, int32(r))
		} else {
			h = g.appendf(h, "var %s uint64\n", r)
		}
	}
	// Blank uses, 16 to a line, keep unread locals legal.
	for i := 0; i < len(rs); i += 16 {
		grp := rs[i:min(i+16, len(rs))]
		for j := range grp {
			if j > 0 {
				h = append(h, ", "...)
			}
			h = append(h, '_')
		}
		h = append(h, " = "...)
		for j, r := range grp {
			if j > 0 {
				h = append(h, ", "...)
			}
			h = natAppendReg(h, r)
		}
		h = append(h, '\n')
	}
	g.hdr = h
	g.b = slices.Insert(g.b, start, h...)

	// One stub per bailing batch start: spill the registers the rest of
	// the run may read before writing, then hand the pc to the host.
	g.bailLive()
	words := (len(g.denseRegs) + 63) / 64
	for pc, row := range g.stubAt {
		if row == 0 {
			continue
		}
		g.pf("bail%d:\n", pc)
		live := g.stubs[int(row-1)*words : int(row)*words]
		for i, r := range g.denseRegs {
			if live[i/64]&(1<<(i%64)) != 0 {
				g.pf("regs[%d] = %s\n", int32(r), r)
			}
		}
		g.pf("ev.Cnt[%d] = 1\nev.Cnt[%d] = %d\nreturn 0, nil\n", cntBail, cntBailPC, pc)
	}
	g.pf("}\n\n")
	return true
}

// bailLive computes, for every bailing batch start of the function just
// emitted, which written registers are live there: read on some path from
// that pc before being written. Only those need spilling at a bail, since
// the interpreter resumes at that pc on the register file and every other
// register there still holds its entry value (parameter, constant or zero)
// or is overwritten before it is read. The op semantics are the generator's
// own marks — an op reads its r-marked registers before writing its
// w-marked ones — which is the contract the gate spill relies on too.
//
// Liveness is a backward dataflow over the leader blocks, with bitsets over
// the written registers only: one pass per block for its upward-exposed
// reads (gen) and writes (kill), reverse-order sweeps to a fixpoint, then a
// walk back from each block's end to its bail pcs. It fills stubs and
// stubAt.
func (g *natGen) bailLive() {
	fn := g.fn
	n := len(fn.ops)

	g.dense = natResize(g.dense, fn.nregs)
	g.denseRegs = g.denseRegs[:0]
	for r, wr := range g.written {
		g.dense[r] = -1
		if wr {
			g.dense[r] = int32(len(g.denseRegs))
			g.denseRegs = append(g.denseRegs, natReg(r))
		}
	}
	words := (len(g.denseRegs) + 63) / 64

	// Group the marks by pc (a stable counting sort), keeping only written
	// registers.
	g.markAt = natResize(g.markAt, n+1)
	for _, m := range g.marks {
		if g.dense[m.reg] >= 0 {
			g.markAt[m.pc+1]++
		}
	}
	for pc := 1; pc <= n; pc++ {
		g.markAt[pc] += g.markAt[pc-1]
	}
	g.sorted = natResize(g.sorted, int(g.markAt[n]))
	next := g.markAt[:n] // consumed below, then rebuilt
	for _, m := range g.marks {
		if d := g.dense[m.reg]; d >= 0 {
			g.sorted[next[m.pc]] = natMark{pc: m.pc, reg: d, w: m.w}
			next[m.pc]++
		}
	}
	// next[pc] now holds the end of pc's range, which is the start of pc+1.
	copy(g.markAt[1:], next)
	g.markAt[0] = 0

	// step applies op pc's transfer to set: its writes die, its reads live.
	step := func(set []uint64, pc int) {
		ms := g.sorted[g.markAt[pc]:g.markAt[pc+1]]
		for _, m := range ms {
			if m.w {
				set[m.reg/64] &^= 1 << (m.reg % 64)
			}
		}
		for _, m := range ms {
			if !m.w {
				set[m.reg/64] |= 1 << (m.reg % 64)
			}
		}
	}
	nb := len(g.leaders)
	end := func(bi int) int {
		if bi+1 < nb {
			return g.leaders[bi+1]
		}
		return n
	}
	g.gen = natResize(g.gen, nb*words)
	g.kill = natResize(g.kill, nb*words)
	g.liveIn = natResize(g.liveIn, nb*words)
	for bi, s := range g.leaders {
		gen, kill := g.gen[bi*words:(bi+1)*words], g.kill[bi*words:(bi+1)*words]
		for pc := end(bi) - 1; pc >= s; pc-- {
			step(gen, pc)
			for _, m := range g.sorted[g.markAt[pc]:g.markAt[pc+1]] {
				if m.w {
					kill[m.reg/64] |= 1 << (m.reg % 64)
				}
			}
		}
	}
	// liveOut sets out to the union of bi's successors' live-in sets.
	g.live = natResize(g.live, words)
	liveOut := func(out []uint64, bi int) {
		clear(out)
		union := func(t int32) {
			in := g.liveIn[g.blockOf(int(t))*words:]
			for i := range out {
				out[i] |= in[i]
			}
		}
		e := end(bi)
		if e == g.leaders[bi] {
			return
		}
		switch o := &fn.ops[e-1]; o.code {
		case opBr, opPhiCopy:
			union(o.b)
		case opCondBr:
			union(o.b)
			union(o.c)
		case opRet, opErrInstr, opErrRaw:
		default:
			if e < n {
				union(int32(e))
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for bi := nb - 1; bi >= 0; bi-- {
			out := g.live
			liveOut(out, bi)
			gen, kill := g.gen[bi*words:(bi+1)*words], g.kill[bi*words:(bi+1)*words]
			in := g.liveIn[bi*words : (bi+1)*words]
			for i := range in {
				if v := gen[i] | out[i]&^kill[i]; v != in[i] {
					in[i] = v
					changed = true
				}
			}
		}
	}

	g.stubAt = natResize(g.stubAt, n)
	g.stubs = g.stubs[:0]
	rows := int32(0)
	for bi, s := range g.leaders {
		live := g.live
		liveOut(live, bi)
		for pc := end(bi) - 1; pc >= s; pc-- {
			step(live, pc)
			if g.bailAt[pc] {
				g.stubs = append(g.stubs, live...)
				rows++
				g.stubAt[pc] = rows
			}
		}
	}
}

// blockOf returns the index of the block that starts at leader pc.
func (g *natGen) blockOf(pc int) int {
	bi, _ := slices.BinarySearch(g.leaders, pc)
	return bi
}

// natGenerate emits the full plugin source for p. The source depends only on
// the program's code shape (ops, plans, baked cost model) — constant values,
// global and function addresses stay in the host-loaded register file — so
// it keys the on-disk plugin cache across processes (natKey). It is left
// unformatted: go build does not need gofmt, and gofmt cost most of a bind.
func natGenerate(p *Program) string {
	g := natGenPool.Get().(*natGen)
	defer natGenPool.Put(g)
	g.b = append(g.b[:0], natPrelude...)
	fns := len(g.b)
	g.tab = append(g.tab[:0], "var Fns = []func([]uint64, *env) (uint64, error){\n"...)
	for i, fn := range p.fns {
		g.fn, g.cm, g.prof = fn, &p.cm, p.prof
		if g.generate(i) {
			g.tab = g.appendf(g.tab, "fn%d,\n", i)
		} else {
			g.tab = append(g.tab, "nil,\n"...)
		}
	}
	g.fn, g.cm = nil, nil
	g.tab = append(g.tab, "}\n\nfunc main() {}\n\n"...)
	g.b = slices.Insert(g.b, fns, g.tab...)
	return string(g.b)
}

// natPrelude opens every plugin: package, imports, the env type and the
// float helpers.
const natPrelude = "// Code generated by the native execution tier (internal/bytecode/native_gen.go). DO NOT EDIT.\n" +
	"package main\n\nimport (\n\"encoding/binary\"\n\"math\"\n)\n\n" +
	"var _ = binary.LittleEndian\nvar _ = math.Float64bits\n\n" +
	natEnvDecl +
	"\nfunc f32(v uint64) float64 { return float64(math.Float32frombits(uint32(v))) }\nfunc b32(f float64) uint64 { return uint64(math.Float32bits(float32(f))) }\n\n"
