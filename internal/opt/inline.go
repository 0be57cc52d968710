package opt

import "repro/internal/ir"

// Inline is a bottom-up function inliner for small, non-recursive callees.
// LLVM's inliner is a module pass running after EP_ModuleOptimizerEarly, so
// instrumentation inserted at the early extension point is inlined along
// with the callee — checks, shadow-stack protocol and all — while later
// extension points see the already-flattened code and insert fewer
// witness-propagation operations across call boundaries.
type Inline struct {
	// Threshold is the maximum callee size in instructions (default 40).
	Threshold int
	// Inlined counts performed inlinings.
	Inlined int
}

// Name returns the pass name.
func (*Inline) Name() string { return "inline" }

// RunModule inlines across the whole module (bounded rounds).
func (p *Inline) RunModule(m *ir.Module) bool {
	if p.Threshold == 0 {
		p.Threshold = 56
	}
	changed := false
	for round := 0; round < 4; round++ {
		any := false
		m.Definitions(func(f *ir.Func) {
			if p.runOnFunc(f) {
				any = true
			}
		})
		if !any {
			return changed
		}
		changed = true
	}
	return changed
}

// Run implements FuncPass on the containing module's function; inlining into
// one function at a time.
func (p *Inline) Run(f *ir.Func) bool {
	if p.Threshold == 0 {
		p.Threshold = 56
	}
	return p.runOnFunc(f)
}

func (p *Inline) runOnFunc(caller *ir.Func) bool {
	changed := false
	rw := ir.NewReplacer(caller)
	defer rw.Apply()
	for {
		var site *ir.Instr
		caller.Instrs(func(in *ir.Instr) bool {
			if in.Op == ir.OpCall {
				callee := in.Callee()
				if p.inlinable(caller, callee) {
					site = in
					return false
				}
			}
			return true
		})
		if site == nil {
			return changed
		}
		inlineCall(caller, site, &rw)
		p.Inlined++
		changed = true
	}
}

func (p *Inline) inlinable(caller, callee *ir.Func) bool {
	if callee == nil || callee.IsDecl() || callee == caller {
		return false
	}
	if callee.Sig.Variadic {
		return false
	}
	// Functions of uninstrumented libraries live behind a link boundary;
	// the compiler never sees their bodies (Section 4.3).
	if callee.IgnoreInstrumentation {
		return false
	}
	if inlineCost(callee) > p.Threshold {
		return false
	}
	// Reject (mutually) recursive callees: anything reachable back to the
	// callee through direct calls.
	if reachesFunc(callee, callee, make(map[*ir.Func]bool)) {
		return false
	}
	return true
}

// inlineCost estimates a callee's size the way LLVM's cost model does:
// calls weigh far more than simple instructions. A consequence the paper's
// extension-point experiment depends on: a function instrumented at
// ModuleOptimizerEarly is full of check calls and usually no longer
// inlinable, while the same function at a later extension point was inlined
// before the instrumentation ran.
func inlineCost(f *ir.Func) int {
	cost := 0
	f.Instrs(func(in *ir.Instr) bool {
		if in.Op == ir.OpCall {
			cost += 10
		} else {
			cost++
		}
		return true
	})
	return cost
}

func reachesFunc(from, target *ir.Func, seen map[*ir.Func]bool) bool {
	if seen[from] {
		return false
	}
	seen[from] = true
	found := false
	from.Instrs(func(in *ir.Instr) bool {
		if in.Op == ir.OpCall {
			if c := in.Callee(); c != nil && !c.IsDecl() {
				if c == target || reachesFunc(c, target, seen) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// inlineCall splices a clone of the callee body in place of the call. The
// call's uses are replaced through rw; its arguments are read through it.
func inlineCall(caller *ir.Func, call *ir.Instr, rw *ir.Replacer) {
	callee := call.Callee()
	rw.ResolveOperands(call)
	args := append([]ir.Value(nil), call.Args()...)

	// Split the block at the call: everything after the call moves to a
	// continuation block.
	callBlock := call.Block
	idx := -1
	for i, in := range callBlock.Instrs {
		if in == call {
			idx = i
			break
		}
	}
	cont := caller.NewBlock(callBlock.Name + ".cont")
	tail := callBlock.Instrs[idx+1:]
	callBlock.Instrs = callBlock.Instrs[:idx]
	for _, in := range tail {
		in.Block = cont
		cont.Instrs = append(cont.Instrs, in)
	}
	// Phi edges that referred to callBlock via its (moved) terminator now
	// come from cont.
	for _, s := range cont.Succs() {
		for _, phi := range s.Phis() {
			for i, pb := range phi.PhiBlocks {
				if pb == callBlock {
					phi.PhiBlocks[i] = cont
				}
			}
		}
	}

	// Clone the callee body into the caller.
	bmap := make(map[*ir.Block]*ir.Block, len(callee.Blocks))
	imap := make(map[*ir.Instr]*ir.Instr)
	for _, b := range callee.Blocks {
		bmap[b] = caller.NewBlock(callee.Name + "." + b.Name)
	}
	mapValue := func(v ir.Value) ir.Value {
		switch x := v.(type) {
		case *ir.Instr:
			return imap[x]
		case *ir.Param:
			return args[x.Index]
		default:
			return v
		}
	}

	var retVals []ir.Value
	var retBlocks []*ir.Block
	var allocas []*ir.Instr

	for _, b := range callee.Blocks {
		nb := bmap[b]
		for _, in := range b.Instrs {
			ni := &ir.Instr{
				Op: in.Op, Ty: in.Ty, Pred: in.Pred, AllocTy: in.AllocTy,
				SrcTy: in.SrcTy, Name: in.Name, Tag: in.Tag,
				Loc: in.Loc, Site: in.Site,
			}
			caller.AdoptInstr(ni)
			imap[in] = ni
			nb.Append(ni)
		}
	}
	for _, b := range callee.Blocks {
		for _, in := range b.Instrs {
			ni := imap[in]
			for _, op := range in.Operands {
				ni.Operands = append(ni.Operands, mapValue(op))
			}
			for _, pb := range in.PhiBlocks {
				ni.PhiBlocks = append(ni.PhiBlocks, bmap[pb])
			}
			for _, s := range in.Succs {
				ni.Succs = append(ni.Succs, bmap[s])
			}
			if ni.Op == ir.OpRet {
				// Rewrite returns into branches to the continuation.
				if len(ni.Operands) > 0 {
					retVals = append(retVals, ni.Operands[0])
					retBlocks = append(retBlocks, ni.Block)
				} else {
					retVals = append(retVals, nil)
					retBlocks = append(retBlocks, ni.Block)
				}
				ni.Op = ir.OpBr
				ni.Operands = nil
				ni.Succs = []*ir.Block{cont}
			}
			if ni.Op == ir.OpAlloca && len(ni.Operands) == 0 {
				allocas = append(allocas, ni)
			}
		}
	}

	// Static allocas move to the caller's entry block so loops around the
	// call site do not grow the stack (LLVM does the same).
	entry := caller.Entry()
	for _, al := range allocas {
		al.Block.Remove(al)
		if first := entry.FirstNonPhi(); first != nil {
			entry.InsertBefore(al, first)
		} else {
			entry.Append(al)
		}
	}

	// Branch from the call block into the inlined entry.
	br := &ir.Instr{Op: ir.OpBr, Ty: ir.Void, Succs: []*ir.Block{bmap[callee.Entry()]}}
	caller.AdoptInstr(br)
	callBlock.Append(br)

	// Merge return values at the continuation.
	if call.Ty != ir.Void {
		var repl ir.Value
		switch len(retVals) {
		case 0:
			repl = ir.NewUndef(call.Ty)
		case 1:
			repl = retVals[0]
		default:
			phi := &ir.Instr{Op: ir.OpPhi, Ty: call.Ty, Name: call.Name + ".ret"}
			caller.AdoptInstr(phi)
			for i, v := range retVals {
				if v == nil {
					v = ir.NewUndef(call.Ty)
				}
				phi.Operands = append(phi.Operands, v)
				phi.PhiBlocks = append(phi.PhiBlocks, retBlocks[i])
			}
			if first := cont.FirstNonPhi(); first != nil {
				cont.InsertBefore(phi, first)
			} else {
				cont.Append(phi)
			}
			repl = phi
		}
		rw.Replace(call, repl)
	}
	// The call itself is gone; cont holds the rest of the original block.
	// (The call was removed from callBlock when the block was split.)
}
