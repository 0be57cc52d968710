package ir

import "testing"

// buildLoopWithDead constructs
//
//	entry:  a = x+1; b = x+2; c = x+3; br header
//	header: p = phi [a, entry], [n, latch]; cond = p < x; br cond, latch, exit
//	latch:  n = p+a; u = a+b; br header
//	exit:   ret p
//	dead:   d = a+b; ret d        (unreachable)
//
// and returns the function with its named values.
func buildLoopWithDead() (*Func, map[string]*Instr) {
	m := NewModule("t")
	f := m.NewFunc("loop", FuncOf(I32, I32), "x")
	bld := NewBuilder(f)
	entry, header := f.NewBlock("entry"), f.NewBlock("header")
	latch, exit, dead := f.NewBlock("latch"), f.NewBlock("exit"), f.NewBlock("dead")
	x := f.Params[0]
	v := map[string]*Instr{}

	bld.SetBlock(entry)
	v["a"] = bld.Add(x, NewInt(I32, 1))
	v["b"] = bld.Add(x, NewInt(I32, 2))
	v["c"] = bld.Add(x, NewInt(I32, 3))
	bld.Br(header)

	bld.SetBlock(header)
	v["p"] = bld.Phi(I32)
	cond := bld.ICmp(PredSLT, v["p"], x)
	bld.CondBr(cond, latch, exit)

	bld.SetBlock(latch)
	v["n"] = bld.Add(v["p"], v["a"])
	v["u"] = bld.Add(v["a"], v["b"])
	bld.Br(header)

	bld.SetBlock(exit)
	bld.Ret(v["p"])

	bld.SetBlock(dead)
	v["d"] = bld.Add(v["a"], v["b"])
	bld.Ret(v["d"])

	v["p"].AddPhiIncoming(v["a"], entry)
	v["p"].AddPhiIncoming(v["n"], latch)
	return f, v
}

// replaceBoth applies the replacements old[i] → new[i] to one copy of the
// function eagerly (ReplaceAllUses, in order) and to another through a
// Replacer the way a pass uses it: walking the blocks in order, resolving
// each visited instruction's operands, and recording the replacement of an
// instruction when the walk reaches it. It returns both texts.
func replaceBoth(t *testing.T, old, new []string) (eager, batched string) {
	t.Helper()
	f, v := buildLoopWithDead()
	for i := range old {
		ReplaceAllUses(f, v[old[i]], v[new[i]])
	}
	eager = FormatFunc(f)

	f, v = buildLoopWithDead()
	rw := NewReplacer(f)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			rw.ResolveOperands(in)
			for i := range old {
				if v[old[i]] == in {
					rw.Replace(in, v[new[i]])
				}
			}
		}
	}
	rw.Apply()
	return eager, FormatFunc(f)
}

func TestReplacerChain(t *testing.T) {
	f, v := buildLoopWithDead()
	rw := NewReplacer(f)
	rw.Replace(v["a"], v["b"])
	rw.Replace(v["b"], v["c"])
	if got := rw.Resolve(v["a"]); got != Value(v["c"]) {
		t.Errorf("a resolves to %s, want c", got.Ref())
	}
	if v["u"].Operands[0] != Value(v["a"]) {
		t.Error("Replace rewrote an operand before Apply")
	}
	rw.Apply()
	for _, name := range []string{"n", "u", "d"} {
		for _, op := range v[name].Operands {
			if op == Value(v["a"]) || op == Value(v["b"]) {
				t.Errorf("%s still uses %s after Apply", name, op.Ref())
			}
		}
	}
	if rw.Resolve(v["a"]) != Value(v["a"]) {
		t.Error("Apply did not forget the replacements")
	}

	eager, batched := replaceBoth(t, []string{"a", "b"}, []string{"b", "c"})
	if eager != batched {
		t.Errorf("chain a→b→c: batched result differs from eager\n--- eager ---\n%s--- batched ---\n%s", eager, batched)
	}
}

// TestReplacerBackEdgePhi: the phi reads n over the back edge and is visited
// before n is replaced; Apply still rewrites the phi's incoming value.
func TestReplacerBackEdgePhi(t *testing.T) {
	eager, batched := replaceBoth(t, []string{"n"}, []string{"c"})
	if eager != batched {
		t.Errorf("batched result differs from eager\n--- eager ---\n%s--- batched ---\n%s", eager, batched)
	}
	f, v := buildLoopWithDead()
	rw := NewReplacer(f)
	rw.Replace(v["n"], v["c"])
	rw.Apply()
	if got := v["p"].PhiIncomingFor(f.Blocks[2]); got != Value(v["c"]) {
		t.Errorf("phi's back-edge value is %s, want c", got.Ref())
	}
}

// TestReplacerUnreachableUse: a use in a block no walk reaches is
// rewritten by Apply, as an eager replacement would have.
func TestReplacerUnreachableUse(t *testing.T) {
	eager, batched := replaceBoth(t, []string{"a"}, []string{"c"})
	if eager != batched {
		t.Errorf("batched result differs from eager\n--- eager ---\n%s--- batched ---\n%s", eager, batched)
	}
	f, v := buildLoopWithDead()
	rw := NewReplacer(f)
	rw.Replace(v["a"], v["c"])
	rw.Apply()
	if v["d"].Operands[0] != Value(v["c"]) {
		t.Errorf("unreachable use reads %s, want c", v["d"].Operands[0].Ref())
	}
}

// TestReplacerIgnoresRepeatsAndSelf: a second replacement of the same
// instruction, and one that resolves back to the instruction itself, are
// no-ops, as their eager counterparts are.
func TestReplacerIgnoresRepeatsAndSelf(t *testing.T) {
	f, v := buildLoopWithDead()
	rw := NewReplacer(f)
	rw.Replace(v["a"], v["b"])
	rw.Replace(v["a"], v["c"])
	rw.Replace(v["b"], v["a"])
	if got := rw.Resolve(v["a"]); got != Value(v["b"]) {
		t.Errorf("a resolves to %s, want b", got.Ref())
	}
	if got := rw.Resolve(v["b"]); got != Value(v["b"]) {
		t.Errorf("b resolves to %s, want b", got.Ref())
	}
}
