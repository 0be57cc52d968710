package analysis

import (
	"testing"

	"repro/internal/ir"
)

// The dominator tree indexes its tables by block and instruction ID. These
// tests pin the cases an ID alone cannot tell apart.

// TestDomTreeForeignBlock: a block of a cloned function carries the same ID
// as its original but is not in the tree.
func TestDomTreeForeignBlock(t *testing.T) {
	f, blocks := buildLoopFunc()
	dt := NewDomTree(f)
	g := ir.CloneModule(f.Parent).Func(f.Name)
	header, gHeader := blocks["header"], g.Blocks[1]
	if gHeader.ID() != header.ID() {
		t.Fatalf("clone changed block ids: %d vs %d", gHeader.ID(), header.ID())
	}
	if dt.Dominates(gHeader, header) || dt.Dominates(header, gHeader) || dt.Dominates(gHeader, gHeader) {
		t.Error("a foreign block takes part in dominance")
	}
	if dt.IDom(gHeader) != nil || len(dt.Children(gHeader)) != 0 || len(dt.Preds(gHeader)) != 0 {
		t.Error("a foreign block has an idom, children or predecessors")
	}
	if len(Predecessors(f).Of(gHeader)) != 0 || len(dt.DominanceFrontiers().Of(gHeader)) != 0 {
		t.Error("a foreign block has predecessor or frontier lists")
	}
	gCmp, cmp := gHeader.Instrs[1], header.Instrs[1]
	if dt.InstrDominates(gHeader.Instrs[0], gCmp) || dt.InstrDominates(gCmp, cmp) {
		t.Error("a foreign instruction takes part in dominance")
	}
}

// TestDomTreeUnreachableBlock: a block that no path reaches answers every
// query as outside the tree, even between its own instructions.
func TestDomTreeUnreachableBlock(t *testing.T) {
	f, blocks := buildLoopFunc()
	dead := f.NewBlock("dead")
	b := ir.NewBuilder(f)
	b.SetBlock(dead)
	x := b.Add(f.Params[0], ir.NewInt(ir.I32, 1))
	y := b.Add(x, x)
	b.Br(blocks["header"])
	dt := NewDomTree(f)
	if dt.Dominates(dead, dead) || dt.Dominates(f.Entry(), dead) || dt.Dominates(dead, blocks["header"]) {
		t.Error("the unreachable block takes part in block dominance")
	}
	if dt.IDom(dead) != nil || len(dt.Children(dead)) != 0 || len(dt.Preds(dead)) != 0 {
		t.Error("the unreachable block has an idom, children or predecessors")
	}
	if dt.InstrDominates(x, y) {
		t.Error("instructions of the unreachable block dominate each other")
	}
	// The dead edge is not a predecessor of the header either.
	for _, p := range dt.Preds(blocks["header"]) {
		if p == dead {
			t.Error("the unreachable block is listed as a predecessor")
		}
	}
}

// TestDomTreeLaterIDs: blocks and instructions created after the tree was
// built (and after its instruction positions were cached) have IDs past
// its tables; queries must neither panic nor misplace them.
func TestDomTreeLaterIDs(t *testing.T) {
	f, blocks := buildLoopFunc()
	dt := NewDomTree(f)
	header, latch := blocks["header"], blocks["latch"]
	phi, cmp := header.Instrs[0], header.Instrs[1]
	if !dt.InstrDominates(phi, cmp) { // caches the positions
		t.Fatal("phi does not dominate cmp")
	}

	b := ir.NewBuilder(f)
	b.SetBefore(cmp)
	early := b.Add(phi, ir.NewInt(ir.I32, 2))
	if early.ID() < len(dt.num) {
		t.Fatalf("new instruction id %d lies inside the tree's tables", early.ID())
	}
	if !dt.InstrDominates(phi, early) || !dt.InstrDominates(early, cmp) || dt.InstrDominates(cmp, early) {
		t.Error("a new instruction is misplaced within its block")
	}
	if !dt.InstrDominates(early, latch.Instrs[0]) || dt.InstrDominates(latch.Instrs[0], early) {
		t.Error("a new instruction is misplaced relative to other blocks")
	}

	late := f.NewBlock("late")
	b.SetBlock(late)
	b.Br(header)
	if dt.Dominates(f.Entry(), late) || dt.IDom(late) != nil || len(dt.Children(late)) != 0 {
		t.Error("a block created after the tree takes part in dominance")
	}
}
