package bytecode

import (
	"fmt"
	"math"

	"repro/internal/ir"
	"repro/internal/rt"
	"repro/internal/vm"
)

// compileTier lowers a module to bytecode under a cost model (nil selects
// the default model). The result is immutable and reusable across VMs; it
// references the module's instruction, global and function objects, so it is
// only valid for VMs created on this exact module (not a clone).
//
// Neither site profiling nor forensics changes the lowering: every check and
// metadata op carries its SiteID in imm and calls the VM's runtime
// operation, which bumps the site profile and records forensics only when
// the bound VM does; prof and rec only record which VMs the program may
// bind. Nor does the tier: it only decides whether an Engine binds native
// code (NewEngine).
func compileTier(mod *ir.Module, cm *vm.CostModel, prof, rec bool, tier EngineKind) *Program {
	if cm == nil {
		cm = vm.DefaultCostModel()
	}
	if tier != EngineCompiler {
		tier = EngineBytecode
	}
	p := &Program{mod: mod, cm: *cm, prof: prof, rec: rec, tier: tier, byFunc: make(map[*ir.Func]*Fn)}
	for _, f := range mod.Funcs {
		if f.IsDecl() {
			continue
		}
		fn := compileFunc(f, cm, len(p.fns))
		p.fns = append(p.fns, fn)
		p.byFunc[f] = fn
	}
	// Link direct calls now that every function has a Fn.
	for _, fn := range p.fns {
		for i := range fn.intCalls {
			fn.intCalls[i].fn = p.byFunc[fn.intCalls[i].callee]
		}
	}
	if mf := mod.Func("main"); mf != nil {
		p.main = p.byFunc[mf]
	}
	return p
}

// maskFor is the truncation mask for a bit width (parity with vm.truncate).
func maskFor(bits int) uint64 {
	if bits >= 64 {
		return ^uint64(0)
	}
	if bits <= 0 {
		return 0
	}
	return 1<<uint(bits) - 1
}

// shFor is the shift that sign-extends a bits-wide value via
// int64(v<<sh)>>sh (parity with vm.signExtend, including bits<=0 → 0).
func shFor(bits int) uint8 {
	if bits >= 64 {
		return 0
	}
	if bits <= 0 {
		return 64
	}
	return uint8(64 - bits)
}

// fbitsOf mirrors vm's floatBits width selection: 32-bit floats are encoded
// as float32 bit patterns, everything else as float64.
func fwidth(t *ir.Type) uint8 {
	if t.Bits == 32 {
		return 32
	}
	return 64
}

func floatBitsOf(t *ir.Type, f float64) uint64 {
	if t.Bits == 32 {
		return uint64(math.Float32bits(float32(f)))
	}
	return math.Float64bits(f)
}

type fixup struct {
	pc    int
	field uint8 // 0 → op.b, 1 → op.c
	pred  *ir.Block
	succ  *ir.Block
}

type fnc struct {
	f         *ir.Func
	cm        *vm.CostModel
	fn        *Fn
	instrReg  map[*ir.Instr]int32
	rawReg    map[uint64]int32
	globalReg map[*ir.Global]int32
	funcReg   map[*ir.Func]int32
	blockPC   map[*ir.Block]int
	fixups    []fixup
	stubs     map[[2]*ir.Block]int
}

func compileFunc(f *ir.Func, cm *vm.CostModel, idx int) *Fn {
	c := &fnc{
		f:         f,
		cm:        cm,
		fn:        &Fn{idx: idx, ir: f, nparams: len(f.Params)},
		instrReg:  make(map[*ir.Instr]int32),
		rawReg:    make(map[uint64]int32),
		globalReg: make(map[*ir.Global]int32),
		funcReg:   make(map[*ir.Func]int32),
		blockPC:   make(map[*ir.Block]int),
		stubs:     make(map[[2]*ir.Block]int),
	}
	// Pass 1: assign result registers (after the parameter slots).
	n := int32(len(f.Params))
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Ty != ir.Void {
				c.instrReg[in] = n
				n++
			}
		}
	}
	c.fn.constBase = int(n)
	// Pass 2: emit ops block by block; branch targets become fixups.
	for _, b := range f.Blocks {
		c.emitBlock(b)
	}
	// Pass 3: materialize phi-copy edge stubs and patch jump targets.
	c.resolveEdges()
	c.fn.nregs = c.fn.constBase + len(c.fn.consts)
	return c.fn
}

func (c *fnc) push(o op) { c.fn.ops = append(c.fn.ops, o) }

// raw interns a literal constant value into the pool.
func (c *fnc) raw(val uint64) int32 {
	if r, ok := c.rawReg[val]; ok {
		return r
	}
	r := int32(c.fn.constBase + len(c.fn.consts))
	c.fn.consts = append(c.fn.consts, constEntry{kind: constRaw, val: val})
	c.rawReg[val] = r
	return r
}

// regOf resolves an operand to its register, interning constants as needed.
// The caller has already rejected operand kinds the reference interpreter
// cannot evaluate (see knownValue).
func (c *fnc) regOf(v ir.Value) int32 {
	switch y := v.(type) {
	case *ir.Instr:
		if r, ok := c.instrReg[y]; ok {
			return r
		}
		// A void instruction used as an operand reads as zero, like the
		// untouched register slot it would occupy in the reference
		// interpreter.
		return c.raw(0)
	case *ir.Param:
		if y.Index >= 0 && y.Index < c.fn.nparams {
			return int32(y.Index)
		}
		return c.raw(0)
	case *ir.ConstInt:
		return c.raw(y.Unsigned())
	case *ir.ConstFloat:
		return c.raw(floatBitsOf(y.Ty, y.V))
	case *ir.ConstNull:
		return c.raw(0)
	case *ir.ConstPtr:
		return c.raw(y.Addr)
	case *ir.Undef:
		return c.raw(0)
	case *ir.Global:
		if r, ok := c.globalReg[y]; ok {
			return r
		}
		r := int32(c.fn.constBase + len(c.fn.consts))
		c.fn.consts = append(c.fn.consts, constEntry{kind: constGlobal, g: y})
		c.globalReg[y] = r
		return r
	case *ir.Func:
		if r, ok := c.funcReg[y]; ok {
			return r
		}
		r := int32(c.fn.constBase + len(c.fn.consts))
		c.fn.consts = append(c.fn.consts, constEntry{kind: constFunc, f: y})
		c.funcReg[y] = r
		return r
	}
	return c.raw(0)
}

func knownValue(v ir.Value) bool {
	switch v.(type) {
	case *ir.Instr, *ir.Param, *ir.ConstInt, *ir.ConstFloat, *ir.ConstNull,
		*ir.ConstPtr, *ir.Undef, *ir.Global, *ir.Func:
		return true
	}
	return false
}

func (c *fnc) dstOf(in *ir.Instr) int32 {
	if r, ok := c.instrReg[in]; ok {
		return r
	}
	return -1
}

func (c *fnc) errIdx(msg string, trace bool) int32 {
	c.fn.errs = append(c.fn.errs, errInfo{msg: msg, trace: trace})
	return int32(len(c.fn.errs) - 1)
}

// emitErrInstr defers a compile-time diagnosis for a counted instruction to
// execution time: if the op never runs, the module runs exactly as it would
// under the reference interpreter.
func (c *fnc) emitErrInstr(in *ir.Instr, msg string, cost uint64) {
	c.push(op{code: opErrInstr, instr: in, cost: cost, x: c.errIdx(msg, true)})
}

func (c *fnc) emitErrRaw(msg string, trace bool) {
	c.push(op{code: opErrRaw, x: c.errIdx(msg, trace)})
}

func (c *fnc) emitBlock(b *ir.Block) {
	nphi := 0
	for nphi < len(b.Instrs) && b.Instrs[nphi].Op == ir.OpPhi {
		nphi++
	}
	if b == c.f.Entry() && nphi > 0 {
		// Entering the function lands on entry with no predecessor; the
		// reference interpreter faults resolving the phi. Back-edges into
		// entry bypass this stub via their phi-copy stubs, which jump to
		// blockPC (set below, past this op).
		c.emitErrRaw(fmt.Sprintf("phi %s in @%s has no incoming for entry", b.Instrs[0].Ref(), c.f.Name), false)
	}
	c.blockPC[b] = len(c.fn.ops)
	for _, in := range b.Instrs[nphi:] {
		c.emit(in, b)
	}
	if b.Terminator() == nil {
		c.emitErrRaw("block %"+b.Name+" fell through without terminator", true)
	}
}

var binOps = map[ir.Op]opcode{
	ir.OpAdd: opAdd, ir.OpSub: opSub, ir.OpMul: opMul,
	ir.OpSDiv: opSDiv, ir.OpSRem: opSRem, ir.OpUDiv: opUDiv, ir.OpURem: opURem,
	ir.OpAnd: opAnd, ir.OpOr: opOr, ir.OpXor: opXor,
	ir.OpShl: opShl, ir.OpLShr: opLShr, ir.OpAShr: opAShr,
}

var fltOps = map[ir.Op]opcode{
	ir.OpFAdd: opFAdd, ir.OpFSub: opFSub, ir.OpFMul: opFMul, ir.OpFDiv: opFDiv,
}

func (c *fnc) emit(in *ir.Instr, b *ir.Block) {
	cost := c.cm.InstrCost(in)
	// Ops outside [OpAdd, OpUnreachable], and phis past the leading run,
	// take the reference interpreter's default case.
	if in.Op < ir.OpAdd || in.Op > ir.OpUnreachable || in.Op == ir.OpPhi {
		c.emitErrInstr(in, "unsupported op "+in.Op.String(), cost)
		return
	}
	if in.Op == ir.OpUnreachable {
		c.emitErrInstr(in, "reached unreachable in @"+c.f.Name, cost)
		return
	}
	for _, v := range in.Operands {
		if !knownValue(v) {
			c.emitErrInstr(in, fmt.Sprintf("cannot evaluate operand of type %T", v), cost)
			return
		}
	}
	dst := c.dstOf(in)

	if code, ok := binOps[in.Op]; ok {
		o := op{code: code, instr: in, cost: cost, dst: dst,
			a: c.regOf(in.Operands[0]), b: c.regOf(in.Operands[1]),
			imm: maskFor(in.Ty.Bits), wbits: shFor(in.Ty.Bits)}
		switch code {
		case opShl, opLShr, opAShr:
			o.x = int32(in.Ty.Bits - 1)
		}
		c.push(o)
		return
	}
	if code, ok := fltOps[in.Op]; ok {
		c.push(op{code: code, instr: in, cost: cost, dst: dst,
			a: c.regOf(in.Operands[0]), b: c.regOf(in.Operands[1]),
			wbits: fwidth(in.Ty)})
		return
	}

	switch in.Op {
	case ir.OpICmp:
		if in.Pred < ir.PredEQ || in.Pred > ir.PredUGE {
			c.emitErrInstr(in, "unsupported op "+in.Op.String(), cost)
			return
		}
		t := in.Operands[0].Type()
		bits := 64
		if t.IsInt() {
			bits = t.Bits
		}
		c.push(op{code: opEQ + opcode(in.Pred-ir.PredEQ), instr: in, cost: cost, dst: dst,
			a: c.regOf(in.Operands[0]), b: c.regOf(in.Operands[1]),
			imm: maskFor(bits), wbits: shFor(bits)})

	case ir.OpFCmp:
		if in.Pred < ir.PredOEQ || in.Pred > ir.PredOGE {
			c.emitErrInstr(in, "unsupported op "+in.Op.String(), cost)
			return
		}
		c.push(op{code: opFOEQ + opcode(in.Pred-ir.PredOEQ), instr: in, cost: cost, dst: dst,
			a: c.regOf(in.Operands[0]), b: c.regOf(in.Operands[1]),
			wbits: fwidth(in.Operands[0].Type())})

	case ir.OpTrunc:
		c.push(op{code: opTrunc, instr: in, cost: cost, dst: dst,
			a: c.regOf(in.Operands[0]), imm: maskFor(in.Ty.Bits)})
	case ir.OpZExt:
		// Reference semantics truncate to the *source* width.
		c.push(op{code: opTrunc, instr: in, cost: cost, dst: dst,
			a: c.regOf(in.Operands[0]), imm: maskFor(in.Operands[0].Type().Bits)})
	case ir.OpSExt:
		c.push(op{code: opSExt, instr: in, cost: cost, dst: dst,
			a: c.regOf(in.Operands[0]), wbits: shFor(in.Operands[0].Type().Bits),
			imm: maskFor(in.Ty.Bits)})
	case ir.OpFPTrunc, ir.OpFPExt:
		c.push(op{code: opFPCvt, instr: in, cost: cost, dst: dst,
			a: c.regOf(in.Operands[0]), wbits: fwidth(in.Operands[0].Type()),
			imm: uint64(fwidth(in.Ty))})
	case ir.OpFPToSI:
		c.push(op{code: opFPToSI, instr: in, cost: cost, dst: dst,
			a: c.regOf(in.Operands[0]), wbits: fwidth(in.Operands[0].Type()),
			imm: maskFor(in.Ty.Bits)})
	case ir.OpSIToFP:
		c.push(op{code: opSIToFP, instr: in, cost: cost, dst: dst,
			a: c.regOf(in.Operands[0]), wbits: shFor(in.Operands[0].Type().Bits),
			imm: uint64(fwidth(in.Ty))})
	case ir.OpPtrToInt, ir.OpIntToPtr, ir.OpBitcast:
		c.push(op{code: opMove, instr: in, cost: cost, dst: dst,
			a: c.regOf(in.Operands[0])})

	case ir.OpAlloca:
		count := int32(-1)
		if len(in.Operands) > 0 {
			count = c.regOf(in.Operands[0])
		}
		align := in.AllocTy.Align()
		if align < 8 {
			align = 8
		}
		c.push(op{code: opAlloca, instr: in, cost: cost, dst: dst, a: count,
			imm: uint64(in.AllocTy.Size()), x: int32(align)})

	case ir.OpLoad:
		if in.Ty.IsAggregate() {
			c.emitErrInstr(in, "aggregate load not supported", cost)
			return
		}
		c.push(op{code: opLoad, instr: in, cost: cost, dst: dst,
			a: c.regOf(in.Operands[0]), wbits: uint8(in.Ty.Size())})

	case ir.OpStore:
		vt := in.Operands[0].Type()
		if vt.IsAggregate() {
			c.emitErrInstr(in, "aggregate store not supported", cost)
			return
		}
		c.push(op{code: opStore, instr: in, cost: cost,
			a: c.regOf(in.Operands[0]), b: c.regOf(in.Operands[1]),
			wbits: uint8(vt.Size())})

	case ir.OpGEP:
		c.emitGEP(in, cost, dst)

	case ir.OpSelect:
		c.push(op{code: opSelect, instr: in, cost: cost, dst: dst,
			a: c.regOf(in.Operands[0]), b: c.regOf(in.Operands[1]),
			c: c.regOf(in.Operands[2])})

	case ir.OpCall:
		c.emitCall(in, cost, dst)

	case ir.OpRet:
		a := int32(-1)
		if len(in.Operands) > 0 {
			a = c.regOf(in.Operands[0])
		}
		c.push(op{code: opRet, instr: in, cost: cost, a: a})

	case ir.OpBr:
		c.push(op{code: opBr, instr: in, cost: cost})
		c.fixups = append(c.fixups, fixup{pc: len(c.fn.ops) - 1, field: 0, pred: b, succ: in.Succs[0]})

	case ir.OpCondBr:
		c.push(op{code: opCondBr, instr: in, cost: cost, a: c.regOf(in.Operands[0])})
		pc := len(c.fn.ops) - 1
		c.fixups = append(c.fixups,
			fixup{pc: pc, field: 0, pred: b, succ: in.Succs[0]},
			fixup{pc: pc, field: 1, pred: b, succ: in.Succs[1]})

	default:
		// Unreachable: every op in [OpAdd, OpUnreachable] is handled above.
		c.emitErrInstr(in, "unsupported op "+in.Op.String(), cost)
	}
}

// emitGEP pre-resolves a GEP into constant offsets and scaled index
// registers. A non-constant struct index forces the dynamic type-walk op.
func (c *fnc) emitGEP(in *ir.Instr, cost uint64, dst int32) {
	base := c.regOf(in.Operands[0])
	ty := in.SrcTy
	var steps []gepStep
	dynamic := false
	for i, idxOp := range in.Operands[1:] {
		ci, isConst := idxOp.(*ir.ConstInt)
		var scale int64
		if i == 0 {
			scale = int64(ty.Size())
		} else {
			switch ty.Kind {
			case ir.ArrayKind:
				ty = ty.Elem
				scale = int64(ty.Size())
			case ir.StructKind:
				if !isConst {
					dynamic = true
				} else {
					idx := ci.Signed()
					if idx < 0 || int(idx) >= len(ty.Fields) {
						// Out-of-range constant field index: the reference
						// interpreter panics when (and only when) this
						// executes, so resolve it at run time too.
						dynamic = true
					} else {
						steps = append(steps, gepStep{reg: -1, off: int64(ty.FieldOffset(int(idx)))})
						ty = ty.Fields[idx]
						continue
					}
				}
			default:
				// Extra index into a scalar type: the reference interpreter
				// silently ignores it.
				continue
			}
		}
		if dynamic {
			break
		}
		if isConst {
			steps = append(steps, gepStep{reg: -1, off: ci.Signed() * scale})
		} else {
			steps = append(steps, gepStep{reg: c.regOf(idxOp), sh: shFor(idxOp.Type().Bits), scale: scale})
		}
	}
	if dynamic {
		pl := gepDynPlan{srcTy: in.SrcTy}
		for _, idxOp := range in.Operands[1:] {
			pl.idx = append(pl.idx, dynIdx{reg: c.regOf(idxOp), sh: shFor(idxOp.Type().Bits)})
		}
		c.fn.gepDyns = append(c.fn.gepDyns, pl)
		c.push(op{code: opGEPDyn, instr: in, cost: cost, dst: dst, a: base,
			x: int32(len(c.fn.gepDyns) - 1)})
		return
	}
	// Merge adjacent constant offsets.
	merged := steps[:0]
	for _, s := range steps {
		if s.reg < 0 && len(merged) > 0 && merged[len(merged)-1].reg < 0 {
			merged[len(merged)-1].off += s.off
			continue
		}
		merged = append(merged, s)
	}
	c.fn.geps = append(c.fn.geps, gepPlan{steps: merged})
	c.push(op{code: opGEP, instr: in, cost: cost, dst: dst, a: base,
		x: int32(len(c.fn.geps) - 1)})
}

func (c *fnc) emitCall(in *ir.Instr, cost uint64, dst int32) {
	callee := in.Callee()
	if callee == nil {
		c.emitErrInstr(in, "indirect call not supported", cost)
		return
	}
	args := in.Args()
	regs := make([]int32, len(args))
	for i, a := range args {
		regs[i] = c.regOf(a)
	}
	if !callee.IsDecl() {
		c.fn.intCalls = append(c.fn.intCalls, intCall{callee: callee, args: regs})
		c.push(op{code: opCallInt, instr: in, cost: cost + c.cm.Call, dst: dst,
			x: int32(len(c.fn.intCalls) - 1)})
		return
	}
	// Runtime intrinsics lower to opcodes of their own when the arity
	// matches the registered handler's expectations; anything else goes
	// through the generic external-call op (whose handler faults like the
	// interpreter).
	// imm carries the SiteID for the check/metadata intrinsics (unused by the
	// shadow-stack and witness ops).
	o := op{instr: in, cost: cost, imm: uint64(in.Site), dst: dst, a: -1, b: -1, c: -1, d: -1}
	intrinsic := true
	switch {
	case callee.Name == rt.SBLoadBase && len(regs) == 1:
		o.code, o.a = opSBLoadBase, regs[0]
	case callee.Name == rt.SBLoadBound && len(regs) == 1:
		o.code, o.a = opSBLoadBound, regs[0]
	case callee.Name == rt.SBStoreMD && len(regs) == 3:
		o.code, o.a, o.b, o.c = opSBStoreMD, regs[0], regs[1], regs[2]
	case callee.Name == rt.SBCheck && len(regs) == 4:
		o.code, o.a, o.b, o.c, o.d = opSBCheck, regs[0], regs[1], regs[2], regs[3]
	case callee.Name == rt.SBSSAlloc && len(regs) == 1:
		o.code, o.a = opSBSSAlloc, regs[0]
	case callee.Name == rt.SBSSSetArg && len(regs) == 3:
		o.code, o.a, o.b, o.c = opSBSSSetArg, regs[0], regs[1], regs[2]
	case callee.Name == rt.SBSSArgBase && len(regs) == 1:
		o.code, o.a = opSBSSArgBase, regs[0]
	case callee.Name == rt.SBSSArgBound && len(regs) == 1:
		o.code, o.a = opSBSSArgBound, regs[0]
	case callee.Name == rt.SBSSSetRet && len(regs) == 2:
		o.code, o.a, o.b = opSBSSSetRet, regs[0], regs[1]
	case callee.Name == rt.SBSSRetBase && len(regs) == 0:
		o.code = opSBSSRetBase
	case callee.Name == rt.SBSSRetBound && len(regs) == 0:
		o.code = opSBSSRetBound
	case callee.Name == rt.SBSSPop && len(regs) == 0:
		o.code = opSBSSPop
	case callee.Name == rt.LFBase && len(regs) == 1:
		o.code, o.a = opLFBase, regs[0]
	case callee.Name == rt.LFCheck && len(regs) == 3:
		o.code, o.a, o.b, o.c = opLFCheck, regs[0], regs[1], regs[2]
	case callee.Name == rt.LFCheckInv && len(regs) == 2:
		o.code, o.a, o.b = opLFCheckInv, regs[0], regs[1]
	case callee.Name == rt.SBCheckRange && len(regs) == 6:
		// Void call, so the dst slot is free for the nonempty register.
		o.code, o.a, o.b, o.x, o.c, o.d, o.dst = opSBCheckRange,
			regs[0], regs[1], regs[2], regs[3], regs[4], regs[5]
	case callee.Name == rt.LFCheckRange && len(regs) == 5:
		o.code, o.a, o.b, o.x, o.c, o.dst = opLFCheckRange,
			regs[0], regs[1], regs[2], regs[3], regs[4]
	default:
		intrinsic = false
	}
	if intrinsic {
		c.push(o)
		return
	}
	c.fn.extCalls = append(c.fn.extCalls, extCall{name: callee.Name, instr: in, args: regs})
	c.push(op{code: opCallExt, instr: in, cost: cost, dst: dst,
		x: int32(len(c.fn.extCalls) - 1)})
}

// resolveEdges patches branch targets. Edges into blocks with phis route
// through a per-(pred, succ) parallel-copy stub appended after the function
// body.
func (c *fnc) resolveEdges() {
	for _, fx := range c.fixups {
		t := c.edgeTarget(fx.pred, fx.succ)
		o := &c.fn.ops[fx.pc]
		if fx.field == 0 {
			o.b = int32(t)
		} else {
			o.c = int32(t)
		}
	}
}

func (c *fnc) edgeTarget(pred, succ *ir.Block) int {
	phis := succ.Phis()
	if len(phis) == 0 {
		return c.blockPC[succ]
	}
	key := [2]*ir.Block{pred, succ}
	if t, ok := c.stubs[key]; ok {
		return t
	}
	t := len(c.fn.ops)
	c.stubs[key] = t
	var pl phiPlan
	for _, phi := range phis {
		in := phi.PhiIncomingFor(pred)
		if in == nil {
			c.emitErrRaw(fmt.Sprintf("phi %s in @%s has no incoming for %%%s", phi.Ref(), c.f.Name, pred.Name), false)
			return t
		}
		if !knownValue(in) {
			c.emitErrRaw(fmt.Sprintf("cannot evaluate operand of type %T", in), true)
			return t
		}
		pl.srcs = append(pl.srcs, c.regOf(in))
		pl.dsts = append(pl.dsts, c.regOf(phi))
	}
	pl.seq = orderSafe(pl.srcs, pl.dsts)
	c.fn.phis = append(c.fn.phis, pl)
	c.push(op{code: opPhiCopy, x: int32(len(c.fn.phis) - 1), b: int32(c.blockPC[succ])})
	return t
}
