package analysis

import "repro/internal/ir"

// DomTree is the dominator tree of a function, built with the
// Cooper–Harvey–Kennedy iterative algorithm ("A Simple, Fast Dominance
// Algorithm"). It answers block- and instruction-level dominance queries.
type DomTree struct {
	*order
	idom []int32 // immediate dominator, by rpo index; idom[0] == 0
	// preds are the predecessor lists the tree was computed from.
	preds    BlockLists
	children BlockLists
	// pos caches the position of each instruction of a tree block inside
	// its block, by instruction ID, for same-block dominance queries. It is
	// built on the first such query.
	pos []instrPos
}

// instrPos is a slot of DomTree.pos; in identifies the instruction the
// slot belongs to.
type instrPos struct {
	in  *ir.Instr
	pos int32
}

// NewDomTree computes the dominator tree of f. Unreachable blocks are not in
// the tree; queries involving them return false.
func NewDomTree(f *ir.Func) *DomTree {
	o := newOrder(f)
	rpo := o.rpo
	dt := &DomTree{order: o, idom: make([]int32, len(rpo)), preds: o.preds()}
	if len(rpo) == 0 {
		dt.children = BlockLists{o: o}
		return dt
	}

	const undef = -1
	for i := range dt.idom {
		dt.idom[i] = undef
	}
	dt.idom[0] = 0

	changed := true
	for changed {
		changed = false
		for i := 1; i < len(rpo); i++ {
			newIdom := int32(undef)
			for _, p := range dt.preds.lists[i] {
				pi := o.num[p.ID()] - 1
				if dt.idom[pi] == undef {
					continue
				}
				if newIdom == undef {
					newIdom = pi
				} else {
					newIdom = dt.intersect(pi, newIdom)
				}
			}
			if newIdom != undef && dt.idom[i] != newIdom {
				dt.idom[i] = newIdom
				changed = true
			}
		}
	}

	// Children in rpo order.
	lens := make([]int32, len(rpo))
	for i := 1; i < len(rpo); i++ {
		if d := dt.idom[i]; d != undef {
			lens[d]++
		}
	}
	kids := newLists(lens)
	for i := 1; i < len(rpo); i++ {
		if d := dt.idom[i]; d != undef {
			kids[d] = append(kids[d], rpo[i])
		}
	}
	dt.children = BlockLists{o: o, lists: kids}
	return dt
}

func (dt *DomTree) intersect(a, b int32) int32 {
	for a != b {
		for a > b {
			a = dt.idom[a]
		}
		for b > a {
			b = dt.idom[b]
		}
	}
	return a
}

// IDom returns the immediate dominator of b, or nil for the entry block and
// unreachable blocks.
func (dt *DomTree) IDom(b *ir.Block) *ir.Block {
	i, ok := dt.index(b)
	if !ok || i == 0 {
		return nil
	}
	return dt.rpo[dt.idom[i]]
}

// Children returns the blocks immediately dominated by b.
func (dt *DomTree) Children(b *ir.Block) []*ir.Block { return dt.children.Of(b) }

// Preds returns b's predecessors among the tree's blocks, as they were when
// the tree was built.
func (dt *DomTree) Preds(b *ir.Block) []*ir.Block { return dt.preds.Of(b) }

// Dominates reports whether block a dominates block b (reflexively).
func (dt *DomTree) Dominates(a, b *ir.Block) bool {
	ai, aok := dt.index(a)
	bi, bok := dt.index(b)
	if !aok || !bok {
		return false
	}
	for bi > ai {
		bi = dt.idom[bi]
	}
	return bi == ai
}

// StrictlyDominates reports whether a dominates b and a != b.
func (dt *DomTree) StrictlyDominates(a, b *ir.Block) bool {
	return a != b && dt.Dominates(a, b)
}

// InstrDominates reports whether instruction a dominates instruction b: a
// strictly precedes b in the same block, or a's block strictly dominates b's.
// An instruction does not dominate itself.
func (dt *DomTree) InstrDominates(a, b *ir.Instr) bool {
	if a == b {
		return false
	}
	if a.Block == b.Block {
		return dt.precedes(a, b)
	}
	return dt.StrictlyDominates(a.Block, b.Block)
}

// precedes reports whether a comes before b in their common block, and
// false when that block is not in the tree. Positions are those of the first same-block query;
// an instruction missing from them (created later, or sharing its ID with
// another instruction) is located by scanning the block.
func (dt *DomTree) precedes(a, b *ir.Instr) bool {
	if dt.pos == nil {
		dt.pos = make([]instrPos, dt.fn.MaxID())
		for _, blk := range dt.rpo {
			for p, x := range blk.Instrs {
				if id := x.ID(); id < len(dt.pos) {
					dt.pos[id] = instrPos{x, int32(p)}
				}
			}
		}
	}
	pa, aok := dt.lookupPos(a)
	pb, bok := dt.lookupPos(b)
	if aok && bok {
		return pa < pb
	}
	if a.Block == nil {
		return false
	}
	if _, ok := dt.index(a.Block); !ok {
		return false
	}
	for _, x := range a.Block.Instrs {
		if x == a || x == b {
			return x == a
		}
	}
	return false
}

func (dt *DomTree) lookupPos(in *ir.Instr) (int32, bool) {
	if id := in.ID(); id < len(dt.pos) && dt.pos[id].in == in {
		return dt.pos[id].pos, true
	}
	return 0, false
}

// ValueDominates reports whether the definition of value v dominates
// instruction user. Constants, parameters, globals and functions dominate
// everything; instruction definitions follow InstrDominates.
func (dt *DomTree) ValueDominates(v ir.Value, user *ir.Instr) bool {
	in, ok := v.(*ir.Instr)
	if !ok {
		return true
	}
	return dt.InstrDominates(in, user)
}

// Blocks returns the reachable blocks in reverse post-order.
func (dt *DomTree) Blocks() []*ir.Block { return dt.rpo }

// DominanceFrontiers computes the dominance frontier of every reachable
// block (Cooper–Harvey–Kennedy): DF(a) contains b iff a dominates a
// predecessor of b but not b strictly. mem2reg places phis at iterated
// frontiers of store blocks.
func (dt *DomTree) DominanceFrontiers() BlockLists {
	df := make([][]*ir.Block, len(dt.rpo))
	for bi, b := range dt.rpo {
		ps := dt.preds.lists[bi]
		if len(ps) < 2 {
			continue
		}
		for _, p := range ps {
			runner := dt.num[p.ID()] - 1
			for runner != dt.idom[bi] {
				df[runner] = append(df[runner], b)
				runner = dt.idom[runner]
			}
		}
	}
	return BlockLists{o: dt.order, lists: df}
}

// VerifySSA checks that every instruction operand's definition dominates its
// use (phi uses are checked against the incoming edge's terminator). It
// returns the first violating instruction, or nil.
func VerifySSA(f *ir.Func) *ir.Instr {
	dt := NewDomTree(f)
	for _, b := range dt.rpo {
		for _, in := range b.Instrs {
			if in.Op == ir.OpPhi {
				for i, op := range in.Operands {
					def, ok := op.(*ir.Instr)
					if !ok {
						continue
					}
					pred := in.PhiBlocks[i]
					term := pred.Terminator()
					if term == nil || (!dt.InstrDominates(def, term) && def != term) {
						return in
					}
				}
				continue
			}
			for _, op := range in.Operands {
				if !dt.ValueDominates(op, in) {
					return in
				}
			}
		}
	}
	return nil
}
