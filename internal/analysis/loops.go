package analysis

import "repro/internal/ir"

// Loop is a natural loop: a header block and the set of blocks that reach a
// back edge to the header without leaving the loop.
type Loop struct {
	Header *ir.Block
	Blocks map[*ir.Block]bool
	// Body lists the loop's blocks in deterministic discovery order
	// (header first). Passes that move or create instructions must
	// iterate Body, not Blocks: ranging over the map lets Go's random
	// iteration order leak into the output program (observed as hoisted
	// instructions swapping places in LICM preheaders between runs).
	Body []*ir.Block
	// Parent is the innermost enclosing loop, if any.
	Parent *Loop
	// Depth is the nesting depth (1 for top-level loops).
	Depth int
}

// Contains reports whether the loop contains block b.
func (l *Loop) Contains(b *ir.Block) bool { return l.Blocks[b] }

// LoopInfo holds the natural loops of a function.
type LoopInfo struct {
	Loops []*Loop
	// ByHeader maps a header block to its loop.
	ByHeader map[*ir.Block]*Loop
	// innermost maps each block to the innermost loop containing it.
	innermost map[*ir.Block]*Loop
}

// InnermostLoop returns the innermost loop containing b, or nil.
func (li *LoopInfo) InnermostLoop(b *ir.Block) *Loop { return li.innermost[b] }

// Depth returns the loop nesting depth of b (0 outside loops).
func (li *LoopInfo) Depth(b *ir.Block) int {
	if l := li.innermost[b]; l != nil {
		return l.Depth
	}
	return 0
}

// FindLoops detects the natural loops of f using back edges of the dominator
// tree: an edge t->h where h dominates t identifies a loop with header h.
// Loops sharing a header are merged.
func FindLoops(f *ir.Func, dt *DomTree) *LoopInfo {
	li := &LoopInfo{
		ByHeader:  make(map[*ir.Block]*Loop),
		innermost: make(map[*ir.Block]*Loop),
	}
	for _, b := range dt.Blocks() {
		for _, s := range b.Succs() {
			if !dt.Dominates(s, b) {
				continue
			}
			// b -> s is a back edge; s is the header.
			loop := li.ByHeader[s]
			if loop == nil {
				loop = &Loop{Header: s, Blocks: map[*ir.Block]bool{s: true}, Body: []*ir.Block{s}}
				li.ByHeader[s] = loop
				li.Loops = append(li.Loops, loop)
			}
			// Walk backwards from the latch collecting the body.
			work := []*ir.Block{b}
			for len(work) > 0 {
				x := work[len(work)-1]
				work = work[:len(work)-1]
				if loop.Blocks[x] {
					continue
				}
				loop.Blocks[x] = true
				loop.Body = append(loop.Body, x)
				work = append(work, dt.Preds(x)...)
			}
		}
	}

	// Establish nesting: loop A is inside B if B contains A's header and
	// A != B. Pick the smallest strict superset as parent.
	for _, a := range li.Loops {
		var best *Loop
		for _, b := range li.Loops {
			if a == b || !b.Blocks[a.Header] {
				continue
			}
			if best == nil || len(b.Blocks) < len(best.Blocks) {
				best = b
			}
		}
		a.Parent = best
	}
	for _, l := range li.Loops {
		d := 1
		for p := l.Parent; p != nil; p = p.Parent {
			d++
		}
		l.Depth = d
	}
	// Innermost loop per block: the smallest loop containing it.
	for _, l := range li.Loops {
		for b := range l.Blocks {
			cur := li.innermost[b]
			if cur == nil || len(l.Blocks) < len(cur.Blocks) {
				li.innermost[b] = l
			}
		}
	}
	return li
}
