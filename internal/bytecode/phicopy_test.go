package bytecode

import (
	"testing"

	"repro/internal/cc"
	"repro/internal/opt"
	"repro/internal/vm"
)

// TestPhiPlanOrderSafe: a parallel copy runs in place, one copy after
// another, only when no destination is a later source. A swap edge
// (a,b)←(b,a) reads a after the first copy overwrote it, so it must keep
// the staged copy.
func TestPhiPlanOrderSafe(t *testing.T) {
	const a, b, c = 1, 2, 3
	cases := []struct {
		name       string
		dsts, srcs []int32
		want       bool
	}{
		{"single copy", []int32{a}, []int32{b}, true},
		{"self copy", []int32{a}, []int32{a}, true},
		{"swap", []int32{a, b}, []int32{b, a}, false},
		{"chain read before write", []int32{a, b}, []int32{b, c}, true},
		{"chain write before read", []int32{b, a}, []int32{c, b}, false},
		{"rotation", []int32{a, b, c}, []int32{b, c, a}, false},
	}
	for _, tc := range cases {
		if got := orderSafe(tc.srcs, tc.dsts); got != tc.want {
			t.Errorf("%s: orderSafe(srcs=%v, dsts=%v) = %v, want %v", tc.name, tc.srcs, tc.dsts, got, tc.want)
		}
	}
}

// TestPhiSwapLowering compiles a loop that swaps two values every
// iteration: its back edge is a swap, which must lower to a plan that is not
// order-safe, and the bytecode engine must still compute what the reference
// interpreter does.
func TestPhiSwapLowering(t *testing.T) {
	m, err := cc.Compile("phiswap", cc.Source{Name: "phiswap.c", Code: `
unsigned long strlen(const char *s);
int main(void) {
	int a = 3, b = 5, n = 0;
	int trips = strlen("seven!!");
	for (int i = 0; i < trips; i++) {
		int t = a;
		a = b;
		b = t;
		n = n * 3 + a;
	}
	return (n + a * 7 + b) % 251;
}
`})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	opt.RunPipeline(m, opt.EPVectorizerStart, nil, opt.PipelineOptions{Level: 3})

	tree, err := vm.New(m, vm.Options{})
	if err != nil {
		t.Fatalf("vm.New: %v", err)
	}
	want, err := tree.Run()
	if err != nil {
		t.Fatalf("tree run: %v", err)
	}

	machine, err := vm.New(m, vm.Options{})
	if err != nil {
		t.Fatalf("vm.New: %v", err)
	}
	prog := compileTier(m, machine.CostModel(), false, false, EngineBytecode)
	staged := 0
	for _, fn := range prog.fns {
		for _, pl := range fn.phis {
			if !pl.seq {
				staged++
			}
		}
	}
	if staged == 0 {
		t.Fatal("no phi plan kept the staged copy; the swap edge was marked order-safe")
	}
	eng, err := NewEngine(prog, machine)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	got, err := eng.Run()
	if err != nil {
		t.Fatalf("bytecode run: %v", err)
	}
	if got != want || machine.Stats != tree.Stats {
		t.Errorf("bytecode: exit %d stats %+v, tree: exit %d stats %+v", got, machine.Stats, want, tree.Stats)
	}
}
