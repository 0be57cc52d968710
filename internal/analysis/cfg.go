// Package analysis provides control-flow analyses over the IR: reverse
// post-order, dominator trees (Cooper–Harvey–Kennedy) and natural-loop
// detection. The instrumentation framework uses dominance both to place
// witnesses and for the dominance-based redundant-check elimination the paper
// evaluates in Section 5.3; the optimizer uses loops for LICM.
//
// Per-block tables are slices, not maps: one table indexed by block ID
// (ir.Block.ID, bounded by ir.Func.MaxID when it is built) numbers the
// reachable blocks in reverse post-order, and every other table is indexed
// by that number. Lookups check the ID's range and the block's identity, so
// a block created after the table was built, or a block of another
// function, reads as absent.
package analysis

import "repro/internal/ir"

// ReversePostOrder returns the blocks of f reachable from the entry in
// reverse post-order. Unreachable blocks are omitted.
func ReversePostOrder(f *ir.Func) []*ir.Block { return newOrder(f).rpo }

// order numbers the reachable blocks of a function in reverse post-order.
type order struct {
	fn  *ir.Func
	rpo []*ir.Block
	// num holds 1 + the rpo index of each reachable block, by block ID; 0
	// marks an unreachable block.
	num []int32
}

func newOrder(f *ir.Func) *order {
	o := &order{fn: f, num: make([]int32, f.MaxID())}
	entry := f.Entry()
	if entry == nil {
		return o
	}
	// Iterative depth-first search that visits successors in order, so the
	// post-order is exactly the recursive one's. num marks visited blocks
	// with -1 until they are numbered.
	type frame struct {
		b     *ir.Block
		succs []*ir.Block
	}
	post := make([]*ir.Block, 0, len(f.Blocks))
	stack := make([]frame, 1, len(f.Blocks))
	stack[0] = frame{entry, entry.Succs()}
	o.num[entry.ID()] = -1
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if len(top.succs) == 0 {
			post = append(post, top.b)
			stack = stack[:len(stack)-1]
			continue
		}
		s := top.succs[0]
		top.succs = top.succs[1:]
		if o.num[s.ID()] == 0 {
			o.num[s.ID()] = -1
			stack = append(stack, frame{s, s.Succs()})
		}
	}
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	for i, b := range post {
		o.num[b.ID()] = int32(i + 1)
	}
	o.rpo = post
	return o
}

// index returns b's position in the reverse post-order, or false when b is
// unreachable, was created after the numbering, or belongs to another
// function.
func (o *order) index(b *ir.Block) (int32, bool) {
	if id := b.ID(); id < len(o.num) {
		if i := o.num[id] - 1; i >= 0 && o.rpo[i] == b {
			return i, true
		}
	}
	return 0, false
}

// BlockLists holds one list of blocks per reachable block of a function:
// predecessor lists, dominator-tree children, dominance frontiers.
type BlockLists struct {
	o     *order
	lists [][]*ir.Block // by rpo index
}

// Of returns the list of b; it is empty for an unreachable block, a block
// created after the lists were built, or a block of another function.
func (l BlockLists) Of(b *ir.Block) []*ir.Block {
	if i, ok := l.o.index(b); ok {
		return l.lists[i]
	}
	return nil
}

// Predecessors computes the predecessor lists of f's reachable blocks, each
// in reverse post-order of the predecessors (an edge listed twice by a
// terminator counts twice).
func Predecessors(f *ir.Func) BlockLists { return newOrder(f).preds() }

// preds builds the predecessor lists.
func (o *order) preds() BlockLists {
	lens := make([]int32, len(o.rpo))
	for _, b := range o.rpo {
		for _, s := range b.Succs() {
			lens[o.num[s.ID()]-1]++
		}
	}
	lists := newLists(lens)
	for _, b := range o.rpo {
		for _, s := range b.Succs() {
			i := o.num[s.ID()] - 1
			lists[i] = append(lists[i], b)
		}
	}
	return BlockLists{o: o, lists: lists}
}

// newLists returns empty lists with capacities lens, carved from one
// backing array, so appending up to those lengths does not allocate.
func newLists(lens []int32) [][]*ir.Block {
	total := 0
	for _, n := range lens {
		total += int(n)
	}
	all := make([]*ir.Block, total)
	lists := make([][]*ir.Block, len(lens))
	off := 0
	for i, n := range lens {
		lists[i] = all[off : off : off+int(n)]
		off += int(n)
	}
	return lists
}
