package analysis

import (
	"math/rand"
	"testing"

	"repro/internal/ir"
)

// randomCFG builds a function with n blocks and pseudo-random branches.
// Block 0 is the entry; every block ends in ret, br or condbr chosen from
// the rng, with successors drawn from the block set.
func randomCFG(rng *rand.Rand, n int) *ir.Func {
	m := ir.NewModule("r")
	f := m.NewFunc("f", ir.FuncOf(ir.Void))
	b := ir.NewBuilder(f)
	blocks := make([]*ir.Block, n)
	for i := range blocks {
		blocks[i] = f.NewBlock("b")
	}
	for _, blk := range blocks {
		b.SetBlock(blk)
		switch rng.Intn(4) {
		case 0:
			b.Ret(nil)
		case 1:
			b.Br(blocks[rng.Intn(n)])
		default:
			cond := ir.NewBool(rng.Intn(2) == 0)
			b.CondBr(cond, blocks[rng.Intn(n)], blocks[rng.Intn(n)])
		}
	}
	return f
}

// naiveDominators computes dominator sets by the classic iterative data-flow
// definition: dom(entry) = {entry}; dom(b) = {b} ∪ ∩ dom(preds).
func naiveDominators(f *ir.Func) map[*ir.Block]map[*ir.Block]bool {
	rpo := ReversePostOrder(f)
	preds := Predecessors(f)
	dom := make(map[*ir.Block]map[*ir.Block]bool, len(rpo))
	all := make(map[*ir.Block]bool, len(rpo))
	for _, b := range rpo {
		all[b] = true
	}
	for i, b := range rpo {
		if i == 0 {
			dom[b] = map[*ir.Block]bool{b: true}
			continue
		}
		s := make(map[*ir.Block]bool, len(all))
		for k := range all {
			s[k] = true
		}
		dom[b] = s
	}
	changed := true
	for changed {
		changed = false
		for i, b := range rpo {
			if i == 0 {
				continue
			}
			var inter map[*ir.Block]bool
			for _, p := range preds.Of(b) {
				pd, ok := dom[p]
				if !ok {
					continue // unreachable pred
				}
				if inter == nil {
					inter = make(map[*ir.Block]bool, len(pd))
					for k := range pd {
						inter[k] = true
					}
					continue
				}
				for k := range inter {
					if !pd[k] {
						delete(inter, k)
					}
				}
			}
			if inter == nil {
				inter = map[*ir.Block]bool{}
			}
			inter[b] = true
			if len(inter) != len(dom[b]) {
				dom[b] = inter
				changed = true
				continue
			}
			for k := range inter {
				if !dom[b][k] {
					dom[b] = inter
					changed = true
					break
				}
			}
		}
	}
	return dom
}

// TestDomTreeMatchesNaiveProperty cross-checks the Cooper-Harvey-Kennedy
// implementation against the set-based definition on random CFGs.
func TestDomTreeMatchesNaiveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20250706))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(12)
		f := randomCFG(rng, n)
		dt := NewDomTree(f)
		want := naiveDominators(f)
		blocks := dt.Blocks()
		for _, a := range blocks {
			for _, b := range blocks {
				got := dt.Dominates(a, b)
				exp := want[b][a]
				if got != exp {
					t.Fatalf("trial %d: Dominates(%s, %s) = %t, want %t\n%s",
						trial, a.Name, b.Name, got, exp, ir.FormatFunc(f))
				}
			}
		}
		// IDom consistency: the immediate dominator is a strict dominator
		// and every other strict dominator dominates it.
		for _, b := range blocks {
			id := dt.IDom(b)
			if b == f.Entry() {
				if id != nil {
					t.Fatalf("entry has idom")
				}
				continue
			}
			if id == nil || !want[b][id] || id == b {
				t.Fatalf("trial %d: bad idom for %s", trial, b.Name)
			}
			for d := range want[b] {
				if d == b || d == id {
					continue
				}
				if !want[id][d] {
					t.Fatalf("trial %d: %s strictly dominates %s but not its idom %s",
						trial, d.Name, b.Name, id.Name)
				}
			}
		}
	}
}

// TestLoopsAreCyclesProperty: every detected natural loop contains a cycle
// through its header, and every block of the loop can reach the header
// within the loop.
func TestLoopsAreCyclesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(10)
		f := randomCFG(rng, n)
		dt := NewDomTree(f)
		li := FindLoops(f, dt)
		for _, l := range li.Loops {
			if !l.Contains(l.Header) {
				t.Fatalf("trial %d: loop does not contain its header", trial)
			}
			// Every loop block reaches the header without leaving the loop.
			for b := range l.Blocks {
				if !reachesWithin(b, l.Header, l.Blocks) {
					t.Fatalf("trial %d: %s cannot reach header %s inside the loop",
						trial, b.Name, l.Header.Name)
				}
			}
			// The header dominates every loop block.
			for b := range l.Blocks {
				if !dt.Dominates(l.Header, b) {
					t.Fatalf("trial %d: header does not dominate %s", trial, b.Name)
				}
			}
		}
	}
}

func reachesWithin(from, to *ir.Block, within map[*ir.Block]bool) bool {
	if from == to {
		return true
	}
	seen := map[*ir.Block]bool{from: true}
	work := []*ir.Block{from}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range b.Succs() {
			if s == to {
				return true
			}
			if within[s] && !seen[s] {
				seen[s] = true
				work = append(work, s)
			}
		}
	}
	return false
}
