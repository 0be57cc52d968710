package opt

import (
	"repro/internal/analysis"
	"repro/internal/ir"
)

// SimplifyCFG removes unreachable blocks, merges blocks with a single
// unconditional-branch predecessor, and threads branches through empty
// forwarding blocks.
type SimplifyCFG struct{}

// Name returns the pass name.
func (SimplifyCFG) Name() string { return "simplifycfg" }

// Run executes the pass.
func (SimplifyCFG) Run(f *ir.Func) bool {
	if f.Entry() == nil {
		return false
	}
	changed := false
	rw := ir.NewReplacer(f)
	for {
		c := removeUnreachable(f)
		c = mergeBlocks(f, &rw) || c
		c = threadEmptyBlocks(f) || c
		if !c {
			rw.Apply()
			return changed
		}
		changed = true
	}
}

func removeUnreachable(f *ir.Func) bool {
	rpo := analysis.ReversePostOrder(f)
	if len(rpo) == len(f.Blocks) {
		return false
	}
	reachable := make([]bool, f.MaxID())
	for _, b := range rpo {
		reachable[b.ID()] = true
	}
	var dead []*ir.Block
	for _, b := range f.Blocks {
		if !reachable[b.ID()] {
			dead = append(dead, b)
		}
	}
	if len(dead) == 0 {
		return false
	}
	for _, b := range dead {
		// Remove phi edges from dead predecessors.
		for _, s := range b.Succs() {
			if reachable[s.ID()] {
				removePhiEdge(s, b)
			}
		}
	}
	for _, b := range dead {
		f.RemoveBlock(b)
	}
	return true
}

// mergeBlocks merges b into its single predecessor p when p ends in an
// unconditional branch to b and b is p's only successor target. The uses of
// b's (single-incoming) phis are replaced through rw.
func mergeBlocks(f *ir.Func, rw *ir.Replacer) bool {
	changed := false
	for {
		merged := false
		for _, b := range f.Blocks {
			if b == f.Entry() {
				continue
			}
			p := singlePred(b)
			if p == nil {
				continue
			}
			t := p.Terminator()
			if t == nil || t.Op != ir.OpBr || t.Succs[0] != b {
				continue
			}
			if len(b.Phis()) > 0 {
				// Single-pred phis are trivial; fold them first.
				for _, phi := range b.Phis() {
					rw.Replace(phi, phi.Operands[0])
					b.Remove(phi)
				}
			}
			// Splice b's instructions after removing p's branch.
			p.Remove(t)
			for _, in := range b.Instrs {
				in.Block = p
				p.Instrs = append(p.Instrs, in)
			}
			b.Instrs = nil
			// Phis in b's successors must refer to p now.
			for _, s := range p.Succs() {
				for _, phi := range s.Phis() {
					for i, pb := range phi.PhiBlocks {
						if pb == b {
							phi.PhiBlocks[i] = p
						}
					}
				}
			}
			f.RemoveBlock(b)
			merged = true
			changed = true
			break
		}
		if !merged {
			return changed
		}
	}
}

// singlePred returns b's only predecessor, or nil when it has none or
// several (a predecessor branching to b on both edges counts once).
func singlePred(b *ir.Block) *ir.Block {
	var pred *ir.Block
	for _, p := range b.Parent.Blocks {
		for _, s := range p.Succs() {
			if s == b {
				if pred != nil {
					return nil
				}
				pred = p
				break
			}
		}
	}
	return pred
}

// threadEmptyBlocks redirects branches that target a block containing only
// an unconditional branch, when the final target has no phis that would need
// disambiguation.
func threadEmptyBlocks(f *ir.Func) bool {
	changed := false
	for _, b := range f.Blocks {
		if b == f.Entry() || len(b.Instrs) != 1 {
			continue
		}
		t := b.Terminator()
		if t == nil || t.Op != ir.OpBr {
			continue
		}
		target := t.Succs[0]
		if target == b || len(target.Phis()) > 0 {
			continue
		}
		for _, p := range ir.Preds(b) {
			pt := p.Terminator()
			already := false
			for _, s := range pt.Succs {
				if s == target {
					already = true
				}
			}
			if already {
				continue // avoid creating duplicate edges into phi-less blocks is fine, but keep it simple
			}
			for i, s := range pt.Succs {
				if s == b {
					pt.Succs[i] = target
					changed = true
				}
			}
		}
	}
	if changed {
		removeUnreachable(f)
	}
	return changed
}
