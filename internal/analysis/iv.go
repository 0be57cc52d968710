package analysis

import "repro/internal/ir"

// CountedLoop is the result of recognizing a counted loop with a single
// affine induction variable:
//
//	pre:    ... br header
//	header: iv = phi [start, pre] [next, latch]; ...
//	        c = icmp pred iv, bound        ; bound loop-invariant
//	        br c, body, exit               ; (or inverted / swapped)
//	body*  -> latch -> header              ; latch is the unique back edge
//
// After normalization the loop body executes exactly while Pred(IV, Bound)
// holds when evaluated at header entry, and IV advances by Step (±1) per
// iteration. The header is the loop's only exiting block, so every block
// dominating the latch executes on every iteration that enters the body —
// the guarantee loop-check hoisting builds on.
type CountedLoop struct {
	Loop      *Loop
	Preheader *ir.Block
	Latch     *ir.Block
	Exit      *ir.Block
	// IV is the induction phi in the header; Next its in-loop increment.
	IV   *ir.Instr
	Next *ir.Instr
	// Start is IV's (loop-invariant) value on loop entry.
	Start ir.Value
	// Step is the per-iteration increment, +1 or -1.
	Step int64
	// Bound is the loop-invariant comparison limit: the body executes
	// while Pred(IV, Bound) holds.
	Bound ir.Value
	Pred  ir.Pred
}

// LastDelta returns d such that Bound+d is the IV value of the final
// iteration that executes (for a non-empty loop). For example a step-+1
// loop guarded by `iv < bound` last executes iv = bound-1, so d = -1.
func (cl *CountedLoop) LastDelta() int64 {
	switch cl.Pred {
	case ir.PredSLT, ir.PredULT:
		return -1
	case ir.PredSGT, ir.PredUGT:
		return 1
	default: // SLE, ULE, SGE, UGE: the bound itself is executed last.
		return 0
	}
}

// LoopInvariant reports whether v is invariant with respect to loop l:
// constants, parameters and globals always are; an instruction is invariant
// iff it is defined outside the loop.
func LoopInvariant(l *Loop, v ir.Value) bool {
	in, ok := v.(*ir.Instr)
	return !ok || !l.Contains(in.Block)
}

// CountedLoopsOf filters li down to the loops AnalyzeCountedLoop accepts,
// preserving the deterministic FindLoops order. The check-hoisting pass
// consumes it to place preheader range checks.
func CountedLoopsOf(li *LoopInfo) []*CountedLoop {
	var out []*CountedLoop
	for _, l := range li.Loops {
		if cl, ok := AnalyzeCountedLoop(l); ok {
			out = append(out, cl)
		}
	}
	return out
}

// AnalyzeCountedLoop recognizes l as a counted loop. It is deliberately
// conservative: every rejection below errs towards "not counted" so that
// clients may rely on the exact-trip semantics documented on CountedLoop.
func AnalyzeCountedLoop(l *Loop) (*CountedLoop, bool) {
	h := l.Header

	// Preheader: unique predecessor outside the loop, branching
	// unconditionally to the header. Latch: unique back-edge predecessor.
	var pre, latch *ir.Block
	for _, p := range ir.Preds(h) {
		if l.Contains(p) {
			if latch != nil {
				return nil, false // multiple back edges (e.g. continue)
			}
			latch = p
			continue
		}
		if pre != nil {
			return nil, false
		}
		pre = p
	}
	if pre == nil || latch == nil {
		return nil, false
	}
	if t := pre.Terminator(); t == nil || t.Op != ir.OpBr {
		return nil, false
	}

	// The header must be the only exiting block: a break elsewhere would
	// let iterations that entered the body stop before reaching the latch.
	for _, b := range l.Body {
		if b == h {
			continue
		}
		for _, s := range b.Succs() {
			if !l.Contains(s) {
				return nil, false
			}
		}
	}

	// Header exits on an icmp of the IV phi against an invariant bound.
	term := h.Terminator()
	if term == nil || term.Op != ir.OpCondBr {
		return nil, false
	}
	cond, ok := term.Operands[0].(*ir.Instr)
	if !ok || cond.Op != ir.OpICmp || cond.Block != h {
		return nil, false
	}
	var exit *ir.Block
	pred := cond.Pred
	if l.Contains(term.Succs[0]) && !l.Contains(term.Succs[1]) {
		exit = term.Succs[1]
	} else if l.Contains(term.Succs[1]) && !l.Contains(term.Succs[0]) {
		// Inverted: the loop continues while the condition is false.
		exit = term.Succs[0]
		pred = negatedPred(pred)
	} else {
		return nil, false
	}

	// Put the IV phi on the left of the comparison.
	var iv *ir.Instr
	var bound ir.Value
	if p, ok := cond.Operands[0].(*ir.Instr); ok && p.Op == ir.OpPhi && p.Block == h {
		iv, bound = p, cond.Operands[1]
	} else if p, ok := cond.Operands[1].(*ir.Instr); ok && p.Op == ir.OpPhi && p.Block == h {
		iv, bound = p, cond.Operands[0]
		pred = swappedPred(pred)
	} else {
		return nil, false
	}
	if !LoopInvariant(l, bound) {
		return nil, false
	}

	// The phi advances by ±1 through an add/sub inside the loop.
	if len(iv.Operands) != 2 {
		return nil, false
	}
	start := iv.PhiIncomingFor(pre)
	next, nok := iv.PhiIncomingFor(latch).(*ir.Instr)
	if start == nil || !nok || !l.Contains(next.Block) {
		return nil, false
	}
	var stepC *ir.ConstInt
	switch {
	case next.Op == ir.OpAdd && next.Operands[0] == iv:
		stepC, ok = next.Operands[1].(*ir.ConstInt)
	case next.Op == ir.OpAdd && next.Operands[1] == iv:
		stepC, ok = next.Operands[0].(*ir.ConstInt)
	case next.Op == ir.OpSub && next.Operands[0] == iv:
		if stepC, ok = next.Operands[1].(*ir.ConstInt); ok {
			stepC = ir.NewInt(stepC.Ty, -stepC.Signed())
		}
	default:
		return nil, false
	}
	if !ok {
		return nil, false
	}
	step := stepC.Signed()
	if step != 1 && step != -1 {
		return nil, false
	}

	// Predicate and step must agree so the loop counts towards its bound
	// and stops exactly when the comparison first fails. Non-strict
	// predicates additionally require a constant bound away from the
	// extremal value of the width: `iv <= MAX` (resp. `iv >= MIN`) never
	// goes false, the IV wraps, and iterations outside [start, bound]
	// execute — breaking the exact-coverage guarantee.
	bits := iv.Ty.Bits
	switch {
	case step == 1 && (pred == ir.PredSLT || pred == ir.PredULT):
	case step == -1 && (pred == ir.PredSGT || pred == ir.PredUGT):
	case step == 1 && (pred == ir.PredSLE || pred == ir.PredULE),
		step == -1 && (pred == ir.PredSGE || pred == ir.PredUGE):
		c, ok := bound.(*ir.ConstInt)
		if !ok || c.Unsigned() == extremalBound(pred, bits) {
			return nil, false
		}
	default:
		return nil, false
	}

	return &CountedLoop{
		Loop:      l,
		Preheader: pre,
		Latch:     latch,
		Exit:      exit,
		IV:        iv,
		Next:      next,
		Start:     start,
		Step:      step,
		Bound:     bound,
		Pred:      pred,
	}, true
}

// extremalBound returns the bound value (as the width-truncated bit
// pattern) at which the given non-strict continue-predicate can never go
// false, making the loop infinite.
func extremalBound(p ir.Pred, bits int) uint64 {
	switch p {
	case ir.PredSLE: // iv <= SMAX
		return truncToBits(1<<uint(bits-1)-1, bits)
	case ir.PredULE: // iv <= UMAX
		return truncToBits(^uint64(0), bits)
	case ir.PredSGE: // iv >= SMIN
		return truncToBits(1<<uint(bits-1), bits)
	case ir.PredUGE: // iv >= 0
		return 0
	}
	panic("extremalBound: not a non-strict predicate")
}

func truncToBits(v uint64, bits int) uint64 {
	if bits >= 64 {
		return v
	}
	return v & (1<<uint(bits) - 1)
}

// swappedPred returns p' such that `a p b` == `b p' a`.
func swappedPred(p ir.Pred) ir.Pred {
	switch p {
	case ir.PredSLT:
		return ir.PredSGT
	case ir.PredSGT:
		return ir.PredSLT
	case ir.PredSLE:
		return ir.PredSGE
	case ir.PredSGE:
		return ir.PredSLE
	case ir.PredULT:
		return ir.PredUGT
	case ir.PredUGT:
		return ir.PredULT
	case ir.PredULE:
		return ir.PredUGE
	case ir.PredUGE:
		return ir.PredULE
	default: // EQ, NE are symmetric
		return p
	}
}

// negatedPred returns p' such that `a p b` == !(a p' b).
func negatedPred(p ir.Pred) ir.Pred {
	switch p {
	case ir.PredEQ:
		return ir.PredNE
	case ir.PredNE:
		return ir.PredEQ
	case ir.PredSLT:
		return ir.PredSGE
	case ir.PredSGE:
		return ir.PredSLT
	case ir.PredSLE:
		return ir.PredSGT
	case ir.PredSGT:
		return ir.PredSLE
	case ir.PredULT:
		return ir.PredUGE
	case ir.PredUGE:
		return ir.PredULT
	case ir.PredULE:
		return ir.PredUGT
	default: // PredUGT
		return ir.PredULE
	}
}

// EvalPred evaluates an integer predicate on width-truncated bit patterns,
// interpreting them as bits-wide values. Exported for tests that simulate
// loops the analysis claims to understand.
func EvalPred(p ir.Pred, a, b uint64, bits int) bool {
	ua, ub := truncToBits(a, bits), truncToBits(b, bits)
	sa, sb := signExtend(ua, bits), signExtend(ub, bits)
	switch p {
	case ir.PredEQ:
		return ua == ub
	case ir.PredNE:
		return ua != ub
	case ir.PredSLT:
		return sa < sb
	case ir.PredSLE:
		return sa <= sb
	case ir.PredSGT:
		return sa > sb
	case ir.PredSGE:
		return sa >= sb
	case ir.PredULT:
		return ua < ub
	case ir.PredULE:
		return ua <= ub
	case ir.PredUGT:
		return ua > ub
	case ir.PredUGE:
		return ua >= ub
	}
	panic("EvalPred: unknown predicate")
}

func signExtend(v uint64, bits int) int64 {
	if bits >= 64 {
		return int64(v)
	}
	if v&(1<<uint(bits-1)) != 0 {
		v |= ^uint64(0) << uint(bits)
	}
	return int64(v)
}
