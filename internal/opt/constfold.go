package opt

import "repro/internal/ir"

// ConstFold folds constant expressions, simplifies algebraic identities and
// turns conditional branches on constants into unconditional ones (fixing up
// phis on the removed edge).
type ConstFold struct{}

// Name returns the pass name.
func (ConstFold) Name() string { return "constfold" }

// Run executes the pass.
func (ConstFold) Run(f *ir.Func) bool {
	changed := false
	rw := ir.NewReplacer(f)
	for _, b := range f.Blocks {
		kept := b.Instrs[:0]
		for _, in := range b.Instrs {
			rw.ResolveOperands(in)
			if v := foldInstr(in); v != nil {
				rw.Replace(in, v)
				in.Block = nil
				changed = true
				continue
			}
			kept = append(kept, in)
		}
		b.Truncate(len(kept))
		if t := b.Terminator(); t != nil && t.Op == ir.OpCondBr {
			if c, ok := t.Operands[0].(*ir.ConstInt); ok {
				then, els := t.Succs[0], t.Succs[1]
				live, dead := then, els
				if c.Unsigned() == 0 {
					live, dead = els, then
				}
				b.Remove(t)
				nb := &ir.Instr{Op: ir.OpBr, Ty: ir.Void, Succs: []*ir.Block{live}}
				b.Append(nb)
				if dead != live {
					removePhiEdge(dead, b)
				}
				changed = true
			}
		}
	}
	rw.Apply()
	return changed
}

// removePhiEdge drops the incoming entries for predecessor pred from the
// phis of block b.
func removePhiEdge(b *ir.Block, pred *ir.Block) {
	for _, phi := range b.Phis() {
		for i, pb := range phi.PhiBlocks {
			if pb == pred {
				phi.Operands = append(phi.Operands[:i], phi.Operands[i+1:]...)
				phi.PhiBlocks = append(phi.PhiBlocks[:i], phi.PhiBlocks[i+1:]...)
				break
			}
		}
	}
}

func foldInstr(in *ir.Instr) ir.Value {
	switch {
	case in.IsBinaryOp():
		return foldBinary(in)
	case in.Op == ir.OpICmp:
		a, aok := in.Operands[0].(*ir.ConstInt)
		c, cok := in.Operands[1].(*ir.ConstInt)
		if aok && cok {
			return ir.NewBool(evalIntPred(in.Pred, a, c))
		}
	case in.Op == ir.OpSelect:
		if c, ok := in.Operands[0].(*ir.ConstInt); ok {
			if c.Unsigned() != 0 {
				return in.Operands[1]
			}
			return in.Operands[2]
		}
		if ir.SameValue(in.Operands[1], in.Operands[2]) {
			return in.Operands[1]
		}
	case in.Op == ir.OpPhi:
		// A phi whose incomings are all the same value is that value.
		if len(in.Operands) > 0 {
			first := in.Operands[0]
			same := true
			for _, op := range in.Operands[1:] {
				if op != first && op != in {
					same = false
					break
				}
			}
			if same && first != in {
				return first
			}
		}
	case in.Op == ir.OpZExt, in.Op == ir.OpSExt, in.Op == ir.OpTrunc:
		if c, ok := in.Operands[0].(*ir.ConstInt); ok {
			switch in.Op {
			case ir.OpTrunc, ir.OpZExt:
				return ir.NewInt(in.Ty, int64(c.Unsigned()))
			case ir.OpSExt:
				return ir.NewInt(in.Ty, c.Signed())
			}
		}
	case in.Op == ir.OpBitcast:
		// bitcast to the identical type is a no-op.
		if in.Operands[0].Type().Equal(in.Ty) {
			return in.Operands[0]
		}
	}
	return nil
}

func foldBinary(in *ir.Instr) ir.Value {
	a, aok := in.Operands[0].(*ir.ConstInt)
	b, bok := in.Operands[1].(*ir.ConstInt)
	ty := in.Ty
	if !ty.IsInt() {
		return nil
	}
	if aok && bok {
		av, bv := a.Signed(), b.Signed()
		au, bu := a.Unsigned(), b.Unsigned()
		switch in.Op {
		case ir.OpAdd:
			return ir.NewInt(ty, av+bv)
		case ir.OpSub:
			return ir.NewInt(ty, av-bv)
		case ir.OpMul:
			return ir.NewInt(ty, av*bv)
		case ir.OpSDiv:
			if bv != 0 {
				return ir.NewInt(ty, av/bv)
			}
		case ir.OpSRem:
			if bv != 0 {
				return ir.NewInt(ty, av%bv)
			}
		case ir.OpUDiv:
			if bu != 0 {
				return ir.NewInt(ty, int64(au/bu))
			}
		case ir.OpURem:
			if bu != 0 {
				return ir.NewInt(ty, int64(au%bu))
			}
		case ir.OpAnd:
			return ir.NewInt(ty, int64(au&bu))
		case ir.OpOr:
			return ir.NewInt(ty, int64(au|bu))
		case ir.OpXor:
			return ir.NewInt(ty, int64(au^bu))
		case ir.OpShl:
			return ir.NewInt(ty, int64(au<<(bu&uint64(ty.Bits-1))))
		case ir.OpLShr:
			return ir.NewInt(ty, int64(au>>(bu&uint64(ty.Bits-1))))
		case ir.OpAShr:
			return ir.NewInt(ty, av>>(bu&uint64(ty.Bits-1)))
		}
		return nil
	}
	// Algebraic identities with one constant.
	if bok {
		switch {
		case in.Op == ir.OpAdd && b.Unsigned() == 0,
			in.Op == ir.OpSub && b.Unsigned() == 0,
			in.Op == ir.OpMul && b.Signed() == 1,
			in.Op == ir.OpSDiv && b.Signed() == 1,
			in.Op == ir.OpUDiv && b.Signed() == 1,
			in.Op == ir.OpOr && b.Unsigned() == 0,
			in.Op == ir.OpXor && b.Unsigned() == 0,
			in.Op == ir.OpShl && b.Unsigned() == 0,
			in.Op == ir.OpLShr && b.Unsigned() == 0,
			in.Op == ir.OpAShr && b.Unsigned() == 0:
			return in.Operands[0]
		case in.Op == ir.OpMul && b.Unsigned() == 0,
			in.Op == ir.OpAnd && b.Unsigned() == 0:
			return ir.NewInt(ty, 0)
		}
	}
	if aok {
		switch {
		case in.Op == ir.OpAdd && a.Unsigned() == 0,
			in.Op == ir.OpOr && a.Unsigned() == 0,
			in.Op == ir.OpXor && a.Unsigned() == 0:
			return in.Operands[1]
		case in.Op == ir.OpMul && a.Signed() == 1:
			return in.Operands[1]
		case in.Op == ir.OpMul && a.Unsigned() == 0,
			in.Op == ir.OpAnd && a.Unsigned() == 0:
			return ir.NewInt(ty, 0)
		}
	}
	return nil
}

func evalIntPred(p ir.Pred, a, b *ir.ConstInt) bool {
	as, bs := a.Signed(), b.Signed()
	au, bu := a.Unsigned(), b.Unsigned()
	switch p {
	case ir.PredEQ:
		return au == bu
	case ir.PredNE:
		return au != bu
	case ir.PredSLT:
		return as < bs
	case ir.PredSLE:
		return as <= bs
	case ir.PredSGT:
		return as > bs
	case ir.PredSGE:
		return as >= bs
	case ir.PredULT:
		return au < bu
	case ir.PredULE:
		return au <= bu
	case ir.PredUGT:
		return au > bu
	case ir.PredUGE:
		return au >= bu
	}
	return false
}
