package bytecode

import (
	"fmt"
	"sort"
	"strings"

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
//   - statistics batched per accounting run: steps, the interrupt countdown,
//     instruction count, cost and the static check/memory counters commit
//     once per batch with constant adds; fault paths subtract the statically
//     known accounting of the batch suffix the interpreter would not have
//     executed, so vm.Stats is bit-identical at every observable stop point,
//   - the page-cache memory fast path, SoftBound bounds checks and Low-Fat
//     region arithmetic inlined with compile-time constants (widths, masks,
//     cost-model charges),
//   - everything rare routed through host closures (natEnv): calls, allocas,
//     shadow-stack ops, range checks, dynamic GEPs via the one-op gate, and
//     fault construction via dedicated error callbacks.
//
// Exactness follows the same argument as the fused interpreter tier
// (quicken.go): a batch only commits after proving the step limit is not
// reachable inside it and handling at most one interrupt-countdown crossing
// via the poll callback; when either condition fails the function bails out
// to the generic interpreter at a valid op boundary, which then replays the
// ops one at a time with the exact per-op preamble — so step-limit faults and
// interrupt observations land on exactly the op, and with exactly the
// statistics, the reference interpreter reports.

// natEnvDecl must stay byte-identical (modulo the alias name) to the natEnv
// declaration in native_env.go: the plugin and the host assert type identity
// structurally on this unnamed struct.
const natEnvDecl = `type env = struct {
	Cnt    [16]uint64
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

// natFnMeta is the host-side description of one generated function.
type natFnMeta struct {
	compiled bool
	// at maps a pc to its block's entry index (-1 when pc is not a block
	// leader); the entry index is the plugin function's dispatch argument.
	at []int32
}

// natContrib is the statically known statistics contribution of one op (or a
// batch of ops): the vm.Stats deltas plus the counted-step total (st) and the
// interrupt-countdown decrement total (po). The two differ for fused
// check+access ops, whose second phase counts a step and an instruction but
// does not touch the countdown. For profiled programs, sites carries the
// per-site Execs/Cost contributions of the batch (wide counts are dynamic
// and bump inline); they commit and roll back with the same suffix
// discipline as the Cnt words, matching the interpreter's bump-before-check
// order — a fault at a profiling op keeps that op's own site commit.
type natContrib struct {
	in, co, st, po, ld, sr, ck, iv, ml, ms uint64
	sites                                  []natSiteContrib
}

// natSiteContrib is one site's static contribution: ex executions charging
// co abstract cost in total.
type natSiteContrib struct {
	id, ex, co uint64
}

func (c *natContrib) add(d natContrib) {
	c.in += d.in
	c.co += d.co
	c.st += d.st
	c.po += d.po
	c.ld += d.ld
	c.sr += d.sr
	c.ck += d.ck
	c.iv += d.iv
	c.ml += d.ml
	c.ms += d.ms
	c.sites = append(c.sites[:len(c.sites):len(c.sites)], d.sites...)
}

// addSite records one profiled execution of site id charging unit cost.
// Site 0 means "no site" and is skipped, mirroring Engine.bumpSite.
func (c *natContrib) addSite(id, unit uint64) {
	if id != 0 {
		c.sites = append(c.sites, natSiteContrib{id: id, ex: 1, co: unit})
	}
}

// natSiteTotals merges a contribution's site list by id, ordered by id, so
// the rendered commits and rollbacks are deterministic.
func natSiteTotals(sites []natSiteContrib) []natSiteContrib {
	if len(sites) == 0 {
		return nil
	}
	byID := map[uint64]*natSiteContrib{}
	var ids []uint64
	for _, s := range sites {
		if t, ok := byID[s.id]; ok {
			t.ex += s.ex
			t.co += s.co
			continue
		}
		cp := s
		byID[s.id] = &cp
		ids = append(ids, s.id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]natSiteContrib, len(ids))
	for i, id := range ids {
		out[i] = *byID[id]
	}
	return out
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
		opLFBase, opLFCheck, opLFCheckInv,
		opSBCheckLoad, opSBCheckStore, opLFCheckLoad, opLFCheckStore,
		opSBStoreMDProf, opSBCheckProf, opLFCheckProf, opLFCheckInvProf,
		opSBCheckLoadProf, opSBCheckStoreProf, opLFCheckLoadProf, opLFCheckStoreProf:
		return natInline
	case opAlloca, opAllocaRec, opGEPDyn, opCallInt, opCallExt,
		opSBSSAlloc, opSBSSSetArg, opSBSSArgBase, opSBSSArgBound,
		opSBSSSetRet, opSBSSRetBase, opSBSSRetBound, opSBSSPop,
		opSBCheckRange, opLFCheckRange,
		opSBCheckRangeProf, opLFCheckRangeProf:
		return natGate
	case opBr, opCondBr, opRet, opErrInstr, opPhiCopy, opErrRaw:
		return natTerm
	}
	return natUnsupported
}

// natGateIO returns the registers the gate handler for o reads and writes
// (the generated code spills reads before the call and reloads writes after).
func natGateIO(fn *Fn, o *op) (reads, writes []int32, ok bool) {
	addDst := func() {
		if o.dst >= 0 {
			writes = append(writes, o.dst)
		}
	}
	switch o.code {
	case opAlloca, opAllocaRec:
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
	case opSBCheckRange, opSBCheckRangeProf:
		reads = append(reads, o.a, o.b, o.x, o.c, o.d, o.dst)
	case opLFCheckRange, opLFCheckRangeProf:
		reads = append(reads, o.a, o.b, o.x, o.c, o.dst)
	default:
		return nil, nil, false
	}
	return reads, writes, true
}

// natContribOf computes the static accounting of one inline or terminator op.
func natContribOf(fn *Fn, cm *vm.CostModel, o *op) natContrib {
	if o.code >= opUncountedStart {
		return natContrib{} // PhiCopy/ErrRaw account for themselves
	}
	c := natContrib{in: 1, co: o.cost, st: 1, po: 1}
	switch o.code {
	case opLoad:
		c.ld = 1
	case opStore:
		c.sr = 1
	case opSBLoadBase, opSBLoadBound:
		c.ml, c.co = 1, c.co+cm.SBMetaLoad
	case opSBStoreMD, opSBStoreMDProf:
		c.ms, c.co = 1, c.co+cm.SBMetaStore
	case opSBCheck, opSBCheckProf:
		c.ck, c.co = 1, c.co+cm.SBCheck
	case opLFCheck, opLFCheckProf:
		c.ck, c.co = 1, c.co+cm.LFCheck
	case opLFCheckInv, opLFCheckInvProf:
		c.iv, c.co = 1, c.co+cm.LFCheck
	case opLFBase:
		c.co += cm.LFBase
	case opSBCheckLoad, opSBCheckLoadProf:
		c.in, c.st, c.ck, c.ld = 2, 2, 1, 1
		c.co += cm.SBCheck + fn.aux[o.x].cost2
	case opSBCheckStore, opSBCheckStoreProf:
		c.in, c.st, c.ck, c.sr = 2, 2, 1, 1
		c.co += cm.SBCheck + fn.aux[o.x].cost2
	case opLFCheckLoad, opLFCheckLoadProf:
		c.in, c.st, c.ck, c.ld = 2, 2, 1, 1
		c.co += cm.LFCheck + fn.aux[o.x].cost2
	case opLFCheckStore, opLFCheckStoreProf:
		c.in, c.st, c.ck, c.sr = 2, 2, 1, 1
		c.co += cm.LFCheck + fn.aux[o.x].cost2
	}
	// Profiling twins account like their plain ops plus their own site.
	switch o.code {
	case opSBStoreMDProf:
		c.addSite(o.imm, cm.SBMetaStore)
	case opSBCheckProf, opSBCheckLoadProf, opSBCheckStoreProf:
		c.addSite(o.imm, cm.SBCheck)
	case opLFCheckProf, opLFCheckInvProf, opLFCheckLoadProf, opLFCheckStoreProf:
		c.addSite(o.imm, cm.LFCheck)
	}
	return c
}

// natFnGen emits one function.
type natFnGen struct {
	fn      *Fn
	cm      *vm.CostModel
	body    strings.Builder
	used    map[int32]bool
	written map[int32]bool
	blockOf map[int]int // leader pc -> block index
	leaders []int
	hasBail bool
	ok      bool
	tmp     int // unique suffix for scoped temporaries
}

func (g *natFnGen) pf(f string, a ...any) { fmt.Fprintf(&g.body, f, a...) }

// r names a register local, marking it used; w additionally marks it written
// (written locals are spilled on bail-out).
func (g *natFnGen) r(i int32) string {
	g.used[i] = true
	return fmt.Sprintf("r%d", i)
}

func (g *natFnGen) w(i int32) string {
	g.used[i] = true
	g.written[i] = true
	return fmt.Sprintf("r%d", i)
}

// rb renders the fault rollback for a statically known unearned contribution.
func natRB(c natContrib) string {
	var b strings.Builder
	sub := func(idx int, v uint64) {
		if v != 0 {
			fmt.Fprintf(&b, "ev.Cnt[%d] -= %d\n", idx, v)
		}
	}
	sub(cntInstrs, c.in)
	sub(cntCost, c.co)
	sub(cntLoads, c.ld)
	sub(cntStores, c.sr)
	sub(cntChecks, c.ck)
	sub(cntInv, c.iv)
	sub(cntMetaLoads, c.ml)
	sub(cntMetaStores, c.ms)
	for _, s := range natSiteTotals(c.sites) {
		fmt.Fprintf(&b, "ev.Sites[%d] -= %d\n", s.id*natSiteWords+natSiteExecs, s.ex)
		if s.co != 0 {
			fmt.Fprintf(&b, "ev.Sites[%d] -= %d\n", s.id*natSiteWords+natSiteCost, s.co)
		}
	}
	return b.String()
}

// sx renders the sign-extension the interpreter's sext(v, sh) performs.
func natSX(expr string, sh uint8) string {
	if sh == 0 {
		return fmt.Sprintf("int64(%s)", expr)
	}
	return fmt.Sprintf("(int64((%s)<<%d) >> %d)", expr, sh, sh)
}

// ff/fb render the interpreter's ffrom/fbits with a constant width.
func natFF(wbits uint8, expr string) string {
	if wbits == 32 {
		return fmt.Sprintf("f32(%s)", expr)
	}
	return fmt.Sprintf("math.Float64frombits(%s)", expr)
}

func natFB(bits uint64, expr string) string {
	if bits == 32 {
		return fmt.Sprintf("b32(%s)", expr)
	}
	return fmt.Sprintf("math.Float64bits(%s)", expr)
}

// findLeaders computes block-leader pcs: entry, branch targets, and the op
// after every terminator.
func (g *natFnGen) findLeaders() {
	ops := g.fn.ops
	set := map[int]bool{0: true}
	mark := func(t int32) {
		if t < 0 || int(t) >= len(ops) {
			g.ok = false
			return
		}
		set[int(t)] = true
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
		if i+1 < len(ops) {
			set[i+1] = true
		}
	}
	g.leaders = make([]int, 0, len(set))
	for pc := range set {
		g.leaders = append(g.leaders, pc)
	}
	sort.Ints(g.leaders)
	g.blockOf = make(map[int]int, len(g.leaders))
	for bi, pc := range g.leaders {
		g.blockOf[pc] = bi
	}
}

func (g *natFnGen) emitBatch(units []int) {
	fn, ops := g.fn, g.fn.ops
	var tot natContrib
	contribs := make([]natContrib, len(units))
	for j, pc := range units {
		contribs[j] = natContribOf(fn, g.cm, &ops[pc])
		tot.add(contribs[j])
	}
	pc0 := units[0]
	if tot.st > 0 {
		g.hasBail = true
		g.pf("if ev.Cnt[%d]+%d > ev.Cnt[%d] {\nbailpc = %d\ngoto bail\n}\n", cntSteps, tot.st, cntMaxSteps, pc0)
		g.pf("if ev.Cnt[%d] <= %d {\nif ev.Poll() != 0 {\nbailpc = %d\ngoto bail\n}\nev.Cnt[%d] = %d - (%d - ev.Cnt[%d])\n} else {\nev.Cnt[%d] -= %d\n}\n",
			cntCountdown, tot.po, pc0, cntCountdown, vm.InterruptStride, tot.po, cntCountdown, cntCountdown, tot.po)
		g.pf("ev.Cnt[%d] += %d\n", cntSteps, tot.st)
	}
	addC := func(idx int, v uint64) {
		if v != 0 {
			g.pf("ev.Cnt[%d] += %d\n", idx, v)
		}
	}
	addC(cntInstrs, tot.in)
	addC(cntCost, tot.co)
	addC(cntLoads, tot.ld)
	addC(cntStores, tot.sr)
	addC(cntChecks, tot.ck)
	addC(cntInv, tot.iv)
	addC(cntMetaLoads, tot.ml)
	addC(cntMetaStores, tot.ms)
	for _, s := range natSiteTotals(tot.sites) {
		g.pf("ev.Sites[%d] += %d\n", s.id*natSiteWords+natSiteExecs, s.ex)
		if s.co != 0 {
			g.pf("ev.Sites[%d] += %d\n", s.id*natSiteWords+natSiteCost, s.co)
		}
	}

	// suffix[j] is the batch accounting after unit j — the part a fault at
	// unit j must roll back (before adding the unit's own unearned part).
	suffix := make([]natContrib, len(units)+1)
	for j := len(units) - 1; j >= 0; j-- {
		suffix[j] = suffix[j+1]
		suffix[j].add(contribs[j])
	}
	for j, pc := range units {
		g.emitOp(pc, suffix[j+1])
		if !g.ok {
			return
		}
	}
}

// emitAccess renders the interpreter's load/store fast path (page cache,
// null guard, in-page aligned width) with the slow path delegated to the
// address space. rb is the rollback owed if the access faults.
func (g *natFnGen) emitAccess(isLoad bool, addr string, width uint8, val string, rb string) {
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
	g.pf("pn%d := a%d>>16 + 1\ns%d := pn%d & %d\n", t, t, t, t, natPageWays-1)
	g.pf("if ev.PageID[s%d] != pn%d {\npg%d, err%d := ev.PageFor(a%d)\nif err%d != nil {\n%sreturn 0, err%d\n}\nev.Pages[s%d] = pg%d\nev.PageID[s%d] = pn%d\n}\n",
		t, t, t, t, t, t, rb, t, t, t, t, t)
	off := fmt.Sprintf("a%d&65535", t)
	if isLoad {
		switch width {
		case 8:
			g.pf("%s = binary.LittleEndian.Uint64(ev.Pages[s%d][%s:])\n", val, t, off)
		case 4:
			g.pf("%s = uint64(binary.LittleEndian.Uint32(ev.Pages[s%d][%s:]))\n", val, t, off)
		case 2:
			g.pf("%s = uint64(binary.LittleEndian.Uint16(ev.Pages[s%d][%s:]))\n", val, t, off)
		case 1:
			g.pf("%s = uint64(ev.Pages[s%d][%s])\n", val, t, off)
		}
	} else {
		switch width {
		case 8:
			g.pf("binary.LittleEndian.PutUint64(ev.Pages[s%d][%s:], %s)\n", t, off, val)
		case 4:
			g.pf("binary.LittleEndian.PutUint32(ev.Pages[s%d][%s:], uint32(%s))\n", t, off, val)
		case 2:
			g.pf("binary.LittleEndian.PutUint16(ev.Pages[s%d][%s:], uint16(%s))\n", t, off, val)
		case 1:
			g.pf("ev.Pages[s%d][%s] = byte(%s)\n", t, off, val)
		}
	}
	g.pf("} else {\n")
	slow()
	g.pf("}\n}\n")
}

// natWide renders the wide-bounds elision bumps: vm.Stats.WideChecks, plus
// the profiled site's Wide word when the check carries a site. Wide counts
// are data-dependent, so they commit inline rather than in the batch statics.
func natWide(site uint64) string {
	s := fmt.Sprintf("ev.Cnt[%d]++\n", cntWide)
	if site != 0 {
		s += fmt.Sprintf("ev.Sites[%d]++\n", site*natSiteWords+natSiteWide)
	}
	return s
}

// emitSBCheck renders the SoftBound bounds check (Figure 2): wide-bounds
// elision bumps WideChecks, a violation rolls back rb and fails through the
// host error constructor. Checks/cost (and the site's Execs/Cost for
// profiled checks) are already in the batch statics; the interpreter bumps
// the site before raising a violation, so rb never includes the check's own
// site contribution.
func (g *natFnGen) emitSBCheck(ptr, wd, base, bound, rb string, site uint64) {
	g.pf("if %s == 0 && %s == 0x%x {\n%s} else if !(%s >= %s && %s+%s <= %s && %s+%s >= %s) {\n%sreturn 0, ev.SBFail(%s, %s, %s, %s)\n}\n",
		base, bound, ^uint64(0), natWide(site), ptr, base, ptr, wd, bound, ptr, wd, ptr, rb, ptr, wd, base, bound)
}

// emitLFCheck renders the Low-Fat check (Figure 5): region decode, size
// table as a shift, unsigned offset comparison.
func (g *natFnGen) emitLFCheck(ptr, wd, base, rb string, site uint64) {
	t := g.tmp
	g.tmp++
	g.pf("{\nri%d := %s >> 35\nif ri%d < 1 || ri%d > 27 {\n%s} else {\nsz%d := uint64(16) << (ri%d - 1)\nw%d := %s\nif w%d == 0 {\nw%d = 1\n}\nif %s-%s > sz%d-w%d {\n%sreturn 0, ev.LFFail(0, %s, %s, %s)\n}\n}\n}\n",
		t, base, t, t, natWide(site), t, t, t, wd, t, t, ptr, base, t, t, rb, ptr, wd, base)
}

func (g *natFnGen) emitOp(pc int, suf natContrib) {
	fn := g.fn
	o := &fn.ops[pc]
	rbS := natRB(suf)
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
			t, natSX(g.r(o.b), o.wbits), t, rbS, pc, g.w(o.dst), natSX(g.r(o.a), o.wbits), op, t, o.imm)
	case opUDiv, opURem:
		t := g.tmp
		g.tmp++
		op := "/"
		if o.code == opURem {
			op = "%"
		}
		g.pf("{\nd%d := %s & 0x%x\nif d%d == 0 {\n%sreturn 0, ev.Rte(%d)\n}\n%s = ((%s & 0x%x) %s d%d) & 0x%x\n}\n",
			t, g.r(o.b), o.imm, t, rbS, pc, g.w(o.dst), g.r(o.a), o.imm, op, t, o.imm)
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
		g.pf("{\ns%d := %s & %d\n%s = uint64(%s>>s%d) & 0x%x\n}\n", t, g.r(o.b), o.x, g.w(o.dst), natSX(g.r(o.a), o.wbits), t, o.imm)

	case opFAdd, opFSub, opFMul, opFDiv:
		if o.wbits != 32 && o.wbits != 64 {
			g.ok = false
			return
		}
		op := map[opcode]string{opFAdd: "+", opFSub: "-", opFMul: "*", opFDiv: "/"}[o.code]
		g.pf("%s = %s\n", g.w(o.dst), natFB(uint64(o.wbits), natFF(o.wbits, g.r(o.a))+" "+op+" "+natFF(o.wbits, g.r(o.b))))

	case opEQ, opNE, opULT, opULE, opUGT, opUGE:
		op := map[opcode]string{opEQ: "==", opNE: "!=", opULT: "<", opULE: "<=", opUGT: ">", opUGE: ">="}[o.code]
		g.pf("if %s&0x%x %s %s&0x%x {\n%s = 1\n} else {\n%s = 0\n}\n", g.r(o.a), o.imm, op, g.r(o.b), o.imm, g.w(o.dst), g.w(o.dst))
	case opSLT, opSLE, opSGT, opSGE:
		op := map[opcode]string{opSLT: "<", opSLE: "<=", opSGT: ">", opSGE: ">="}[o.code]
		g.pf("if %s %s %s {\n%s = 1\n} else {\n%s = 0\n}\n", natSX(g.r(o.a), o.wbits), op, natSX(g.r(o.b), o.wbits), g.w(o.dst), g.w(o.dst))
	case opFOEQ, opFONE, opFOLT, opFOLE, opFOGT, opFOGE:
		if o.wbits != 32 && o.wbits != 64 {
			g.ok = false
			return
		}
		op := map[opcode]string{opFOEQ: "==", opFONE: "!=", opFOLT: "<", opFOLE: "<=", opFOGT: ">", opFOGE: ">="}[o.code]
		g.pf("if %s %s %s {\n%s = 1\n} else {\n%s = 0\n}\n", natFF(o.wbits, g.r(o.a)), op, natFF(o.wbits, g.r(o.b)), g.w(o.dst), g.w(o.dst))

	case opTrunc:
		g.pf("%s = %s & 0x%x\n", g.w(o.dst), g.r(o.a), o.imm)
	case opSExt:
		g.pf("%s = uint64(%s) & 0x%x\n", g.w(o.dst), natSX(g.r(o.a), o.wbits), o.imm)
	case opFPCvt:
		if (o.wbits != 32 && o.wbits != 64) || (o.imm != 32 && o.imm != 64) {
			g.ok = false
			return
		}
		g.pf("%s = %s\n", g.w(o.dst), natFB(o.imm, natFF(o.wbits, g.r(o.a))))
	case opFPToSI:
		if o.wbits != 32 && o.wbits != 64 {
			g.ok = false
			return
		}
		g.pf("%s = uint64(int64(%s)) & 0x%x\n", g.w(o.dst), natFF(o.wbits, g.r(o.a)), o.imm)
	case opSIToFP:
		if o.imm != 32 && o.imm != 64 {
			g.ok = false
			return
		}
		g.pf("%s = %s\n", g.w(o.dst), natFB(o.imm, fmt.Sprintf("float64(%s)", natSX(g.r(o.a), o.wbits))))
	case opMove:
		g.pf("%s = %s\n", g.w(o.dst), g.r(o.a))

	case opLoad:
		sufL := suf
		sufL.ld++
		g.emitAccess(true, g.r(o.a), o.wbits, g.w(o.dst), natRB(sufL))
	case opStore:
		sufS := suf
		sufS.sr++
		g.emitAccess(false, g.r(o.b), o.wbits, g.r(o.a), natRB(sufS))

	case opGEP:
		pl := &fn.geps[o.x]
		var off uint64
		var terms []string
		for i := range pl.steps {
			s := &pl.steps[i]
			if s.reg < 0 {
				off += uint64(s.off)
			} else {
				terms = append(terms, fmt.Sprintf("uint64(%s*%d)", natSX(g.r(s.reg), s.sh), s.scale))
			}
		}
		expr := g.r(o.a)
		if off != 0 {
			expr += fmt.Sprintf(" + 0x%x", off)
		}
		for _, t := range terms {
			expr += " + " + t
		}
		g.pf("%s = %s\n", g.w(o.dst), expr)

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
	case opSBStoreMD, opSBStoreMDProf:
		g.pf("ev.TrieStore(%s, %s, %s)\n", g.r(o.a), g.r(o.b), g.r(o.c))
	case opSBCheck:
		g.emitSBCheck(g.r(o.a), g.r(o.b), g.r(o.c), g.r(o.d), rbS, 0)
	case opSBCheckProf:
		g.emitSBCheck(g.r(o.a), g.r(o.b), g.r(o.c), g.r(o.d), rbS, o.imm)

	case opLFBase:
		if o.dst >= 0 {
			t := g.tmp
			g.tmp++
			g.pf("{\nri%d := %s >> 35\nif ri%d < 1 || ri%d > 27 {\n%s = 0\n} else {\n%s = %s &^ ((uint64(16) << (ri%d - 1)) - 1)\n}\n}\n",
				t, g.r(o.a), t, t, g.w(o.dst), g.w(o.dst), g.r(o.a), t)
		}
	case opLFCheck:
		g.emitLFCheck(g.r(o.a), g.r(o.b), g.r(o.c), rbS, 0)
	case opLFCheckProf:
		g.emitLFCheck(g.r(o.a), g.r(o.b), g.r(o.c), rbS, o.imm)
	case opLFCheckInv, opLFCheckInvProf:
		t := g.tmp
		g.tmp++
		g.pf("{\nri%d := %s >> 35\nif ri%d >= 1 && ri%d <= 27 {\nsz%d := uint64(16) << (ri%d - 1)\nif %s-%s > sz%d-1 {\n%sreturn 0, ev.LFFail(1, %s, 0, %s)\n}\n}\n}\n",
			t, g.r(o.b), t, t, t, t, g.r(o.a), g.r(o.b), t, rbS, g.r(o.a), g.r(o.b))

	case opSBCheckLoad, opSBCheckLoadProf:
		site := uint64(0)
		if o.code == opSBCheckLoadProf {
			site = o.imm
		}
		sufC := suf
		sufC.in, sufC.co, sufC.ld = sufC.in+1, sufC.co+fn.aux[o.x].cost2, sufC.ld+1
		g.emitSBCheck(g.r(o.a), g.r(o.b), g.r(o.c), g.r(o.d), natRB(sufC), site)
		sufL := suf
		sufL.ld++
		g.emitAccess(true, g.r(o.a), o.wbits, g.w(o.dst), natRB(sufL))
	case opSBCheckStore, opSBCheckStoreProf:
		site := uint64(0)
		if o.code == opSBCheckStoreProf {
			site = o.imm
		}
		sufC := suf
		sufC.in, sufC.co, sufC.sr = sufC.in+1, sufC.co+fn.aux[o.x].cost2, sufC.sr+1
		g.emitSBCheck(g.r(o.a), g.r(o.b), g.r(o.c), g.r(o.d), natRB(sufC), site)
		sufS := suf
		sufS.sr++
		g.emitAccess(false, g.r(o.a), o.wbits, g.r(o.dst), natRB(sufS))
	case opLFCheckLoad, opLFCheckLoadProf:
		site := uint64(0)
		if o.code == opLFCheckLoadProf {
			site = o.imm
		}
		sufC := suf
		sufC.in, sufC.co, sufC.ld = sufC.in+1, sufC.co+fn.aux[o.x].cost2, sufC.ld+1
		g.emitLFCheck(g.r(o.a), g.r(o.b), g.r(o.c), natRB(sufC), site)
		sufL := suf
		sufL.ld++
		g.emitAccess(true, g.r(o.a), o.wbits, g.w(o.dst), natRB(sufL))
	case opLFCheckStore, opLFCheckStoreProf:
		site := uint64(0)
		if o.code == opLFCheckStoreProf {
			site = o.imm
		}
		sufC := suf
		sufC.in, sufC.co, sufC.sr = sufC.in+1, sufC.co+fn.aux[o.x].cost2, sufC.sr+1
		g.emitLFCheck(g.r(o.a), g.r(o.b), g.r(o.c), natRB(sufC), site)
		sufS := suf
		sufS.sr++
		g.emitAccess(false, g.r(o.a), o.wbits, g.r(o.dst), natRB(sufS))

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
			g.pf("ev.Cnt[%d] += %d\n", cntInstrs, n)
		}
		g.pf("goto bb%d\n", o.b)

	default:
		g.ok = false
	}
}

func (g *natFnGen) emitGate(pc int) {
	o := &g.fn.ops[pc]
	reads, writes, ok := natGateIO(g.fn, o)
	if !ok {
		g.ok = false
		return
	}
	seen := map[int32]bool{}
	var spills []int32
	for _, r := range reads {
		if r >= 0 && !seen[r] {
			seen[r] = true
			spills = append(spills, r)
		}
	}
	sort.Slice(spills, func(i, j int) bool { return spills[i] < spills[j] })
	for _, r := range spills {
		g.pf("regs[%d] = %s\n", r, g.r(r))
	}
	t := g.tmp
	g.tmp++
	g.pf("if err%d := ev.Gate(%d, regs); err%d != nil {\nreturn 0, err%d\n}\n", t, pc, t, t)
	for _, r := range writes {
		g.pf("%s = regs[%d]\n", g.w(r), r)
	}
}

func (g *natFnGen) emitBlock(bi int) {
	fn := g.fn
	s := g.leaders[bi]
	e := len(fn.ops)
	if bi+1 < len(g.leaders) {
		e = g.leaders[bi+1]
	}
	g.pf("bb%d:\n", s)
	var units []int
	var steps uint64
	flush := func() {
		if len(units) > 0 {
			g.emitBatch(units)
			units = nil
			steps = 0
		}
	}
	for pc := s; pc < e && g.ok; pc++ {
		o := &fn.ops[pc]
		switch natClass(o.code) {
		case natTerm:
			c := natContribOf(fn, g.cm, o)
			if steps+c.st > natBatchMaxSteps {
				flush()
			}
			units = append(units, pc)
			flush()
			return
		case natGate:
			flush()
			g.emitGate(pc)
		case natInline:
			c := natContribOf(fn, g.cm, o)
			if steps+c.st > natBatchMaxSteps {
				flush()
			}
			units = append(units, pc)
			steps += c.st
		default:
			g.ok = false
			return
		}
	}
	// Fell through to the next leader without a terminator.
	flush()
	if e < len(fn.ops) {
		g.pf("goto bb%d\n", e)
	} else {
		g.ok = false
	}
}

// generate emits the function, returning its source and meta (ok=false when
// the function uses something the native tier does not compile; the host
// falls back to the interpreter for it).
func (g *natFnGen) generate(idx int) (string, natFnMeta, bool) {
	g.used = map[int32]bool{}
	g.written = map[int32]bool{}
	g.ok = true
	g.findLeaders()
	if !g.ok {
		return "", natFnMeta{}, false
	}
	for bi := range g.leaders {
		g.emitBlock(bi)
		if !g.ok {
			return "", natFnMeta{}, false
		}
	}

	var f strings.Builder
	fmt.Fprintf(&f, "func fn%d(entry uint64, regs []uint64, ev *env) (uint64, error) {\n", idx)
	f.WriteString("var bailpc uint64\n_ = bailpc\n")
	var regsUsed []int
	for r := range g.used {
		regsUsed = append(regsUsed, int(r))
	}
	sort.Ints(regsUsed)
	for _, r := range regsUsed {
		fmt.Fprintf(&f, "r%d := regs[%d]\n", r, r)
	}
	for i := 0; i < len(regsUsed); i += 16 {
		end := min(i+16, len(regsUsed))
		blanks := make([]string, 0, 16)
		vars := make([]string, 0, 16)
		for _, r := range regsUsed[i:end] {
			blanks = append(blanks, "_")
			vars = append(vars, fmt.Sprintf("r%d", r))
		}
		fmt.Fprintf(&f, "%s = %s\n", strings.Join(blanks, ", "), strings.Join(vars, ", "))
	}
	f.WriteString("switch entry {\n")
	for bi, pc := range g.leaders {
		fmt.Fprintf(&f, "case %d:\ngoto bb%d\n", bi, pc)
	}
	f.WriteString("}\ngoto bb0\n")
	f.WriteString(g.body.String())
	if g.hasBail {
		f.WriteString("bail:\n")
		var spills []int
		for r := range g.written {
			spills = append(spills, int(r))
		}
		sort.Ints(spills)
		for _, r := range spills {
			fmt.Fprintf(&f, "regs[%d] = r%d\n", r, r)
		}
		fmt.Fprintf(&f, "ev.Cnt[%d] = 1\nev.Cnt[%d] = bailpc\nreturn 0, nil\n", cntBail, cntBailPC)
	}
	f.WriteString("}\n\n")

	meta := natFnMeta{compiled: true, at: make([]int32, len(g.fn.ops))}
	for i := range meta.at {
		meta.at[i] = -1
	}
	for bi, pc := range g.leaders {
		meta.at[pc] = int32(bi)
	}
	return f.String(), meta, true
}

// natGenerate emits the full plugin source for p. The source depends only on
// the program's code shape (ops, plans, baked cost model) — constant values,
// global and function addresses stay in the host-loaded register file — so
// it keys the on-disk plugin cache across processes (natKey). It is left
// unformatted: go build does not need gofmt, and gofmt cost most of a bind.
func natGenerate(p *Program) (string, []natFnMeta) {
	var b strings.Builder
	b.WriteString("// Code generated by the native execution tier (internal/bytecode/native_gen.go). DO NOT EDIT.\n")
	b.WriteString("package main\n\nimport (\n\"encoding/binary\"\n\"math\"\n)\n\n")
	b.WriteString("var _ = binary.LittleEndian\nvar _ = math.Float64bits\n\n")
	b.WriteString(natEnvDecl)
	b.WriteString("\nfunc f32(v uint64) float64 { return float64(math.Float32frombits(uint32(v))) }\nfunc b32(f float64) uint64 { return uint64(math.Float32bits(float32(f))) }\n\n")

	metas := make([]natFnMeta, len(p.fns))
	var fnsrc strings.Builder
	for i, fn := range p.fns {
		g := &natFnGen{fn: fn, cm: &p.cm}
		src, meta, ok := g.generate(i)
		if ok {
			metas[i] = meta
			fnsrc.WriteString(src)
		}
	}
	b.WriteString("var Fns = []func(uint64, []uint64, *env) (uint64, error){\n")
	for i := range p.fns {
		if metas[i].compiled {
			fmt.Fprintf(&b, "fn%d,\n", i)
		} else {
			b.WriteString("nil,\n")
		}
	}
	b.WriteString("}\n\nfunc main() {}\n\n")
	b.WriteString(fnsrc.String())
	return b.String(), metas
}
