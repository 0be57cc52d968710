package ir_test

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/spec"
)

// TestCloneKeepsIDs: a clone of an optimized module (whose ids have gaps
// left by deleted instructions) must be indistinguishable from the original
// to later passes: same text, same id bound, and a value built in the clone
// gets the name it would get in the original.
func TestCloneKeepsIDs(t *testing.T) {
	m, err := spec.ByName("181mcf").Compile()
	if err != nil {
		t.Fatal(err)
	}
	opt.RunPipeline(m, opt.EPVectorizerStart, nil, opt.PipelineOptions{Level: 3})
	c := ir.CloneModule(m)
	if got, want := ir.FormatModule(c), ir.FormatModule(m); got != want {
		t.Fatal("clone formats differently from the original")
	}
	for i, f := range m.Funcs {
		cf := c.Funcs[i]
		if cf.MaxID() != f.MaxID() {
			t.Errorf("@%s: clone MaxID %d, original %d", f.Name, cf.MaxID(), f.MaxID())
		}
		for j, b := range f.Blocks {
			if cb := cf.Blocks[j]; cb.ID() != b.ID() {
				t.Errorf("@%s %%%s: clone block id %d, original %d", f.Name, b.Name, cb.ID(), b.ID())
			}
		}
	}
	f, cf := m.Func("main"), c.Func("main")
	add := func(f *ir.Func) string {
		bld := ir.NewBuilder(f)
		bld.SetBlock(f.Entry())
		return bld.Add(ir.NewInt(ir.I64, 1), ir.NewInt(ir.I64, 2)).Name
	}
	if got, want := add(cf), add(f); got != want {
		t.Errorf("value built in the clone is named %s, in the original %s", got, want)
	}
}
