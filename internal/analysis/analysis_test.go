package analysis

import (
	"testing"

	"repro/internal/ir"
)

// buildLoopFunc creates:
//
//	entry -> header -> body -> latch -> header
//	                 \-> exit
func buildLoopFunc() (*ir.Func, map[string]*ir.Block) {
	m := ir.NewModule("t")
	f := m.NewFunc("loop", ir.FuncOf(ir.I32, ir.I32), "n")
	b := ir.NewBuilder(f)
	entry := f.NewBlock("entry")
	header := f.NewBlock("header")
	body := f.NewBlock("body")
	latch := f.NewBlock("latch")
	exit := f.NewBlock("exit")

	b.SetBlock(entry)
	b.Br(header)

	b.SetBlock(header)
	i := b.Phi(ir.I32)
	cmp := b.ICmp(ir.PredSLT, i, f.Params[0])
	b.CondBr(cmp, body, exit)

	b.SetBlock(body)
	b.Br(latch)

	b.SetBlock(latch)
	inc := b.Add(i, ir.NewInt(ir.I32, 1))
	b.Br(header)

	i.AddPhiIncoming(ir.NewInt(ir.I32, 0), entry)
	i.AddPhiIncoming(inc, latch)

	b.SetBlock(exit)
	b.Ret(i)

	blocks := map[string]*ir.Block{
		"entry": entry, "header": header, "body": body, "latch": latch, "exit": exit,
	}
	return f, blocks
}

func TestReversePostOrder(t *testing.T) {
	f, blocks := buildLoopFunc()
	rpo := ReversePostOrder(f)
	if len(rpo) != 5 {
		t.Fatalf("rpo has %d blocks, want 5", len(rpo))
	}
	if rpo[0] != blocks["entry"] {
		t.Error("entry not first in RPO")
	}
	pos := map[*ir.Block]int{}
	for i, b := range rpo {
		pos[b] = i
	}
	if pos[blocks["header"]] > pos[blocks["body"]] {
		t.Error("header after body in RPO")
	}
}

func TestDominators(t *testing.T) {
	f, blocks := buildLoopFunc()
	dt := NewDomTree(f)

	cases := []struct {
		a, b string
		want bool
	}{
		{"entry", "exit", true},
		{"header", "body", true},
		{"header", "exit", true},
		{"body", "latch", true},
		{"body", "exit", false},
		{"latch", "header", false},
		{"exit", "entry", false},
		{"header", "header", true},
	}
	for _, c := range cases {
		if got := dt.Dominates(blocks[c.a], blocks[c.b]); got != c.want {
			t.Errorf("Dominates(%s, %s) = %t, want %t", c.a, c.b, got, c.want)
		}
	}
	if dt.IDom(blocks["entry"]) != nil {
		t.Error("entry has an idom")
	}
	if dt.IDom(blocks["exit"]) != blocks["header"] {
		t.Error("exit's idom is not header")
	}
	if dt.IDom(blocks["latch"]) != blocks["body"] {
		t.Error("latch's idom is not body")
	}
}

func TestInstrDominance(t *testing.T) {
	f, blocks := buildLoopFunc()
	dt := NewDomTree(f)
	header := blocks["header"]
	phi := header.Instrs[0]
	cmp := header.Instrs[1]
	if !dt.InstrDominates(phi, cmp) {
		t.Error("phi should dominate the later cmp in the same block")
	}
	if dt.InstrDominates(cmp, phi) {
		t.Error("cmp should not dominate the earlier phi")
	}
	if dt.InstrDominates(cmp, cmp) {
		t.Error("an instruction must not dominate itself")
	}
	latchAdd := blocks["latch"].Instrs[0]
	if !dt.InstrDominates(cmp, latchAdd) {
		t.Error("header instr should dominate latch instr")
	}
	exitRet := blocks["exit"].Instrs[0]
	if dt.InstrDominates(latchAdd, exitRet) {
		t.Error("latch should not dominate exit")
	}
}

func TestDominanceFrontiers(t *testing.T) {
	f, blocks := buildLoopFunc()
	dt := NewDomTree(f)
	df := dt.DominanceFrontiers()
	// The latch's frontier contains the header (back edge); so does the
	// header's own frontier (it does not strictly dominate itself).
	has := func(b *ir.Block, x *ir.Block) bool {
		for _, y := range df.Of(b) {
			if y == x {
				return true
			}
		}
		return false
	}
	if !has(blocks["latch"], blocks["header"]) {
		t.Error("DF(latch) missing header")
	}
	if !has(blocks["header"], blocks["header"]) {
		t.Error("DF(header) missing header (self-frontier of loop header)")
	}
	if has(blocks["entry"], blocks["header"]) {
		t.Error("DF(entry) wrongly contains header")
	}
}

func TestFindLoops(t *testing.T) {
	f, blocks := buildLoopFunc()
	dt := NewDomTree(f)
	li := FindLoops(f, dt)
	if len(li.Loops) != 1 {
		t.Fatalf("found %d loops, want 1", len(li.Loops))
	}
	l := li.Loops[0]
	if l.Header != blocks["header"] {
		t.Error("wrong loop header")
	}
	for _, name := range []string{"header", "body", "latch"} {
		if !l.Contains(blocks[name]) {
			t.Errorf("loop missing %s", name)
		}
	}
	if l.Contains(blocks["exit"]) || l.Contains(blocks["entry"]) {
		t.Error("loop contains non-loop block")
	}
	if li.Depth(blocks["body"]) != 1 || li.Depth(blocks["exit"]) != 0 {
		t.Error("wrong loop depths")
	}
}

func TestNestedLoops(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("nest", ir.FuncOf(ir.Void))
	b := ir.NewBuilder(f)
	entry := f.NewBlock("entry")
	oh := f.NewBlock("outer")
	ih := f.NewBlock("inner")
	il := f.NewBlock("ilatch")
	ol := f.NewBlock("olatch")
	exit := f.NewBlock("exit")

	b.SetBlock(entry)
	b.Br(oh)
	b.SetBlock(oh)
	c1 := b.ICmp(ir.PredEQ, ir.NewInt(ir.I32, 0), ir.NewInt(ir.I32, 0))
	b.CondBr(c1, ih, exit)
	b.SetBlock(ih)
	c2 := b.ICmp(ir.PredEQ, ir.NewInt(ir.I32, 1), ir.NewInt(ir.I32, 1))
	b.CondBr(c2, il, ol)
	b.SetBlock(il)
	b.Br(ih)
	b.SetBlock(ol)
	b.Br(oh)
	b.SetBlock(exit)
	b.Ret(nil)

	dt := NewDomTree(f)
	li := FindLoops(f, dt)
	if len(li.Loops) != 2 {
		t.Fatalf("found %d loops, want 2", len(li.Loops))
	}
	inner := li.ByHeader[ih]
	outer := li.ByHeader[oh]
	if inner == nil || outer == nil {
		t.Fatal("loop headers not identified")
	}
	if inner.Parent != outer {
		t.Error("inner loop's parent is not the outer loop")
	}
	if inner.Depth != 2 || outer.Depth != 1 {
		t.Errorf("depths inner=%d outer=%d, want 2 and 1", inner.Depth, outer.Depth)
	}
	if li.InnermostLoop(il) != inner {
		t.Error("innermost loop of ilatch is not the inner loop")
	}
}

func TestVerifySSA(t *testing.T) {
	f, blocks := buildLoopFunc()
	if bad := VerifySSA(f); bad != nil {
		t.Fatalf("valid SSA reported bad: %s", ir.FormatInstr(bad))
	}
	// Break SSA: use the latch's add in the entry block.
	latchAdd := blocks["latch"].Instrs[0]
	b := ir.NewBuilder(f)
	b.SetBefore(blocks["entry"].Terminator())
	b.Add(latchAdd, ir.NewInt(ir.I32, 1))
	if bad := VerifySSA(f); bad == nil {
		t.Error("SSA violation not detected")
	}
}

func TestUnreachableBlocksIgnored(t *testing.T) {
	f, _ := buildLoopFunc()
	// Add an unreachable block; analyses must not include it.
	dead := f.NewBlock("dead")
	b := ir.NewBuilder(f)
	b.SetBlock(dead)
	b.Unreachable()
	rpo := ReversePostOrder(f)
	for _, blk := range rpo {
		if blk == dead {
			t.Error("unreachable block in RPO")
		}
	}
	dt := NewDomTree(f)
	if dt.Dominates(f.Entry(), dead) {
		t.Error("entry dominates unreachable block")
	}
}
