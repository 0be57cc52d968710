package vm

import (
	"fmt"
	"math"

	"repro/internal/ir"
	"repro/internal/lowfat"
	"repro/internal/mem"
)

// Value representation: every runtime value is a uint64. Integers are stored
// zero-extended from their type width; i1 is 0 or 1; pointers are addresses;
// float values hold their IEEE-754 bit pattern (float32 in the low 32 bits).

func floatBits(ty *ir.Type, f float64) uint64 {
	if ty.Bits == 32 {
		return uint64(math.Float32bits(float32(f)))
	}
	return math.Float64bits(f)
}

func bitsToFloat(ty *ir.Type, b uint64) float64 {
	if ty.Bits == 32 {
		return float64(math.Float32frombits(uint32(b)))
	}
	return math.Float64frombits(b)
}

func signExtend(v uint64, bits int) int64 {
	if bits >= 64 {
		return int64(v)
	}
	v &= 1<<uint(bits) - 1
	if v&(1<<uint(bits-1)) != 0 {
		v |= ^uint64(0) << uint(bits)
	}
	return int64(v)
}

func truncate(v uint64, bits int) uint64 {
	if bits >= 64 {
		return v
	}
	return v & (1<<uint(bits) - 1)
}

// frame is one interpreter activation record.
type frame struct {
	fn   *ir.Func
	regs []uint64
	args []uint64
	// savedSP restores the linear stack on return.
	savedSP uint64
	// lfMark restores the low-fat stack mirror on return.
	lfMark lowfat.Mark
	// fallbackAllocas are oversized mirrored allocas that went to the
	// standard allocator and must be freed on return.
	fallbackAllocas []uint64
	// curBlock/curInstr track the execution position for backtraces.
	curBlock *ir.Block
	curInstr *ir.Instr
}

// val evaluates an operand in the context of a frame.
func (v *VM) val(fr *frame, x ir.Value) uint64 {
	switch y := x.(type) {
	case *ir.Instr:
		return fr.regs[y.ID()]
	case *ir.Param:
		return fr.args[y.Index]
	case *ir.ConstInt:
		return y.Unsigned()
	case *ir.ConstFloat:
		return floatBits(y.Ty, y.V)
	case *ir.ConstNull:
		return 0
	case *ir.ConstPtr:
		return y.Addr
	case *ir.Undef:
		return 0
	case *ir.Global:
		return v.globals[y]
	case *ir.Func:
		return v.funcAddrs[y]
	}
	// Unknown value kinds indicate a malformed module. The panic is typed so
	// that Run's recovery reports it as a structured error with the
	// backtrace of the instruction that referenced the value.
	panic(&RuntimeError{Msg: fmt.Sprintf("cannot evaluate operand of type %T", x), Trace: v.backtrace()})
}

// call runs a function to completion and returns its result.
func (v *VM) call(f *ir.Func, args []uint64) (uint64, error) {
	if f.IsDecl() {
		h, ok := v.externals[f.Name]
		if !ok {
			return 0, &RuntimeError{Msg: "call to unknown external @" + f.Name}
		}
		return h(v, nil, args)
	}
	fr := &frame{
		fn:      f,
		regs:    make([]uint64, f.MaxID()),
		args:    args,
		savedSP: v.sp,
	}
	if v.opts.LowFatStack {
		fr.lfMark = v.LF.Checkpoint()
	}
	v.frames = append(v.frames, fr)
	ret, err := v.exec(fr)
	v.frames = v.frames[:len(v.frames)-1]
	v.sp = fr.savedSP
	if v.opts.LowFatStack {
		v.LF.Release(fr.lfMark)
		for _, a := range fr.fallbackAllocas {
			_ = v.Std.Free(a)
		}
	}
	return ret, err
}

// exec interprets the body of a frame.
func (v *VM) exec(fr *frame) (uint64, error) {
	block := fr.fn.Entry()
	var prev *ir.Block
	cm := v.cost

	for {
		fr.curBlock = block
		// Phase 1: evaluate all phis of the block against prev
		// simultaneously (classic parallel-copy semantics). The phis are
		// the block's leading instructions; slicing them in place keeps
		// block entry allocation-free.
		np := 0
		for np < len(block.Instrs) && block.Instrs[np].Op == ir.OpPhi {
			np++
		}
		phis := block.Instrs[:np]
		if len(phis) > 0 {
			var buf [8]uint64
			vals := buf[:0]
			for _, phi := range phis {
				in := phi.PhiIncomingFor(prev)
				if in == nil {
					return 0, &RuntimeError{Msg: fmt.Sprintf("phi %s in @%s has no incoming for %%%s", phi.Ref(), fr.fn.Name, prev.Name)}
				}
				vals = append(vals, v.val(fr, in))
			}
			for i, phi := range phis {
				fr.regs[phi.ID()] = vals[i]
			}
			v.Stats.Instrs += uint64(len(phis))
		}

		for _, in := range block.Instrs[len(phis):] {
			fr.curInstr = in
			v.steps++
			if v.steps > v.maxSteps {
				return 0, &RuntimeError{Msg: "step limit exceeded", Trace: v.backtrace()}
			}
			if v.steps%InterruptStride == 0 {
				if r := v.opts.Interrupt.Raised(); r != IntrNone {
					return 0, &InterruptError{Reason: r, Steps: v.steps, Trace: v.backtrace()}
				}
			}
			v.Stats.Instrs++
			v.Stats.Cost += cm.instrCost(in)
			if v.opts.CoverInstrs != nil {
				v.opts.CoverInstrs[in] = true
			}

			switch in.Op {
			case ir.OpAdd:
				fr.regs[in.ID()] = truncate(v.val(fr, in.Operands[0])+v.val(fr, in.Operands[1]), in.Ty.Bits)
			case ir.OpSub:
				fr.regs[in.ID()] = truncate(v.val(fr, in.Operands[0])-v.val(fr, in.Operands[1]), in.Ty.Bits)
			case ir.OpMul:
				fr.regs[in.ID()] = truncate(v.val(fr, in.Operands[0])*v.val(fr, in.Operands[1]), in.Ty.Bits)
			case ir.OpSDiv, ir.OpSRem:
				a := signExtend(v.val(fr, in.Operands[0]), in.Ty.Bits)
				b := signExtend(v.val(fr, in.Operands[1]), in.Ty.Bits)
				if b == 0 {
					return 0, &RuntimeError{Msg: "integer division by zero", Trace: v.backtrace()}
				}
				var r int64
				if in.Op == ir.OpSDiv {
					r = a / b
				} else {
					r = a % b
				}
				fr.regs[in.ID()] = truncate(uint64(r), in.Ty.Bits)
			case ir.OpUDiv, ir.OpURem:
				a := truncate(v.val(fr, in.Operands[0]), in.Ty.Bits)
				b := truncate(v.val(fr, in.Operands[1]), in.Ty.Bits)
				if b == 0 {
					return 0, &RuntimeError{Msg: "integer division by zero", Trace: v.backtrace()}
				}
				var r uint64
				if in.Op == ir.OpUDiv {
					r = a / b
				} else {
					r = a % b
				}
				fr.regs[in.ID()] = truncate(r, in.Ty.Bits)
			case ir.OpAnd:
				fr.regs[in.ID()] = truncate(v.val(fr, in.Operands[0])&v.val(fr, in.Operands[1]), in.Ty.Bits)
			case ir.OpOr:
				fr.regs[in.ID()] = truncate(v.val(fr, in.Operands[0])|v.val(fr, in.Operands[1]), in.Ty.Bits)
			case ir.OpXor:
				fr.regs[in.ID()] = truncate(v.val(fr, in.Operands[0])^v.val(fr, in.Operands[1]), in.Ty.Bits)
			case ir.OpShl:
				sh := v.val(fr, in.Operands[1]) & uint64(in.Ty.Bits-1)
				fr.regs[in.ID()] = truncate(v.val(fr, in.Operands[0])<<sh, in.Ty.Bits)
			case ir.OpLShr:
				sh := v.val(fr, in.Operands[1]) & uint64(in.Ty.Bits-1)
				fr.regs[in.ID()] = truncate(v.val(fr, in.Operands[0]), in.Ty.Bits) >> sh
			case ir.OpAShr:
				sh := v.val(fr, in.Operands[1]) & uint64(in.Ty.Bits-1)
				fr.regs[in.ID()] = truncate(uint64(signExtend(v.val(fr, in.Operands[0]), in.Ty.Bits)>>sh), in.Ty.Bits)

			case ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv:
				a := bitsToFloat(in.Ty, v.val(fr, in.Operands[0]))
				b := bitsToFloat(in.Ty, v.val(fr, in.Operands[1]))
				var r float64
				switch in.Op {
				case ir.OpFAdd:
					r = a + b
				case ir.OpFSub:
					r = a - b
				case ir.OpFMul:
					r = a * b
				case ir.OpFDiv:
					r = a / b
				}
				fr.regs[in.ID()] = floatBits(in.Ty, r)

			case ir.OpICmp:
				fr.regs[in.ID()] = v.evalICmp(fr, in)
			case ir.OpFCmp:
				fr.regs[in.ID()] = v.evalFCmp(fr, in)

			case ir.OpTrunc:
				fr.regs[in.ID()] = truncate(v.val(fr, in.Operands[0]), in.Ty.Bits)
			case ir.OpZExt:
				fr.regs[in.ID()] = truncate(v.val(fr, in.Operands[0]), in.Operands[0].Type().Bits)
			case ir.OpSExt:
				fr.regs[in.ID()] = truncate(uint64(signExtend(v.val(fr, in.Operands[0]), in.Operands[0].Type().Bits)), in.Ty.Bits)
			case ir.OpFPTrunc, ir.OpFPExt:
				f := bitsToFloat(in.Operands[0].Type(), v.val(fr, in.Operands[0]))
				fr.regs[in.ID()] = floatBits(in.Ty, f)
			case ir.OpFPToSI:
				f := bitsToFloat(in.Operands[0].Type(), v.val(fr, in.Operands[0]))
				fr.regs[in.ID()] = truncate(uint64(int64(f)), in.Ty.Bits)
			case ir.OpSIToFP:
				i := signExtend(v.val(fr, in.Operands[0]), in.Operands[0].Type().Bits)
				fr.regs[in.ID()] = floatBits(in.Ty, float64(i))
			case ir.OpPtrToInt, ir.OpIntToPtr, ir.OpBitcast:
				fr.regs[in.ID()] = v.val(fr, in.Operands[0])

			case ir.OpAlloca:
				addr, err := v.execAlloca(fr, in)
				if err != nil {
					return 0, err
				}
				fr.regs[in.ID()] = addr

			case ir.OpLoad:
				addr := v.val(fr, in.Operands[0])
				width := in.Ty.Size()
				if in.Ty.IsAggregate() {
					return 0, &RuntimeError{Msg: "aggregate load not supported", Trace: v.backtrace()}
				}
				x, err := v.AS.Load(addr, width)
				if err != nil {
					return 0, err
				}
				v.Stats.Loads++
				fr.regs[in.ID()] = x

			case ir.OpStore:
				val := v.val(fr, in.Operands[0])
				addr := v.val(fr, in.Operands[1])
				vt := in.Operands[0].Type()
				if vt.IsAggregate() {
					return 0, &RuntimeError{Msg: "aggregate store not supported", Trace: v.backtrace()}
				}
				if err := v.AS.Store(addr, vt.Size(), val); err != nil {
					return 0, err
				}
				v.Stats.Stores++
				// A store of a non-pointer value over a tracked pointer
				// slot leaves stale metadata behind in real SoftBound: the
				// trie is keyed by location and only pointer stores update
				// it. We model exactly that by NOT touching the trie here;
				// the instrumentation inserts explicit metadata stores for
				// pointer-typed stores only (Section 4.4's failure mode).

			case ir.OpGEP:
				fr.regs[in.ID()] = v.evalGEP(fr, in)

			case ir.OpSelect:
				if v.val(fr, in.Operands[0]) != 0 {
					fr.regs[in.ID()] = v.val(fr, in.Operands[1])
				} else {
					fr.regs[in.ID()] = v.val(fr, in.Operands[2])
				}

			case ir.OpCall:
				callee := in.Callee()
				if callee == nil {
					return 0, &RuntimeError{Msg: "indirect call not supported", Trace: v.backtrace()}
				}
				args := in.Args()
				argv := make([]uint64, len(args))
				for i, a := range args {
					argv[i] = v.val(fr, a)
				}
				var ret uint64
				var err error
				if callee.IsDecl() {
					h, ok := v.externals[callee.Name]
					if !ok {
						return 0, &RuntimeError{Msg: "call to unknown external @" + callee.Name, Trace: v.backtrace()}
					}
					ret, err = h(v, in, argv)
				} else {
					v.Stats.Cost += cm.Call
					ret, err = v.call(callee, argv)
				}
				if err != nil {
					return 0, err
				}
				if in.Ty != ir.Void {
					fr.regs[in.ID()] = ret
				}

			case ir.OpRet:
				if len(in.Operands) == 0 {
					return 0, nil
				}
				return v.val(fr, in.Operands[0]), nil

			case ir.OpBr:
				prev = block
				block = in.Succs[0]
				goto nextBlock

			case ir.OpCondBr:
				prev = block
				if v.val(fr, in.Operands[0]) != 0 {
					block = in.Succs[0]
				} else {
					block = in.Succs[1]
				}
				goto nextBlock

			case ir.OpUnreachable:
				return 0, &RuntimeError{Msg: "reached unreachable in @" + fr.fn.Name, Trace: v.backtrace()}

			default:
				return 0, &RuntimeError{Msg: "unsupported op " + in.Op.String(), Trace: v.backtrace()}
			}
		}
		return 0, &RuntimeError{Msg: "block %" + block.Name + " fell through without terminator", Trace: v.backtrace()}

	nextBlock:
		continue
	}
}

func (v *VM) evalICmp(fr *frame, in *ir.Instr) uint64 {
	t := in.Operands[0].Type()
	bits := 64
	if t.IsInt() {
		bits = t.Bits
	}
	a := v.val(fr, in.Operands[0])
	b := v.val(fr, in.Operands[1])
	var r bool
	switch in.Pred {
	case ir.PredEQ:
		r = truncate(a, bits) == truncate(b, bits)
	case ir.PredNE:
		r = truncate(a, bits) != truncate(b, bits)
	case ir.PredSLT:
		r = signExtend(a, bits) < signExtend(b, bits)
	case ir.PredSLE:
		r = signExtend(a, bits) <= signExtend(b, bits)
	case ir.PredSGT:
		r = signExtend(a, bits) > signExtend(b, bits)
	case ir.PredSGE:
		r = signExtend(a, bits) >= signExtend(b, bits)
	case ir.PredULT:
		r = truncate(a, bits) < truncate(b, bits)
	case ir.PredULE:
		r = truncate(a, bits) <= truncate(b, bits)
	case ir.PredUGT:
		r = truncate(a, bits) > truncate(b, bits)
	case ir.PredUGE:
		r = truncate(a, bits) >= truncate(b, bits)
	}
	if r {
		return 1
	}
	return 0
}

func (v *VM) evalFCmp(fr *frame, in *ir.Instr) uint64 {
	t := in.Operands[0].Type()
	a := bitsToFloat(t, v.val(fr, in.Operands[0]))
	b := bitsToFloat(t, v.val(fr, in.Operands[1]))
	var r bool
	switch in.Pred {
	case ir.PredOEQ:
		r = a == b
	case ir.PredONE:
		r = a != b
	case ir.PredOLT:
		r = a < b
	case ir.PredOLE:
		r = a <= b
	case ir.PredOGT:
		r = a > b
	case ir.PredOGE:
		r = a >= b
	}
	if r {
		return 1
	}
	return 0
}

func (v *VM) evalGEP(fr *frame, in *ir.Instr) uint64 {
	addr := v.val(fr, in.Operands[0])
	ty := in.SrcTy
	for i, idxOp := range in.Operands[1:] {
		idx := signExtend(v.val(fr, idxOp), idxOp.Type().Bits)
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
	return addr
}

// execAlloca performs a stack allocation, via the linear stack or the
// low-fat stack mirror depending on configuration.
func (v *VM) execAlloca(fr *frame, in *ir.Instr) (uint64, error) {
	count := uint64(1)
	if len(in.Operands) > 0 {
		count = v.val(fr, in.Operands[0])
	}
	size := uint64(in.AllocTy.Size()) * count
	if size == 0 {
		size = 1
	}
	if v.opts.LowFatStack {
		addr, lowFat, err := v.LF.StackAlloc(size)
		if err != nil {
			return 0, err
		}
		if !lowFat {
			fr.fallbackAllocas = append(fr.fallbackAllocas, addr)
		}
		v.TrackAlloc(addr, size, in.AllocSite)
		return addr, nil
	}
	align := uint64(in.AllocTy.Align())
	if align < 8 {
		align = 8
	}
	nsp := (v.sp - size) &^ (align - 1)
	if nsp < mem.StackLimit {
		return 0, &RuntimeError{Msg: "stack overflow", Trace: v.backtrace()}
	}
	v.sp = nsp
	v.TrackAlloc(nsp, size, in.AllocSite)
	return nsp, nil
}
