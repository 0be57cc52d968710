package opt

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/rt"
	"repro/internal/spec"
)

// fmtValueKey is the fmt-based spelling of an operand key that keyBuf
// reproduces without allocating.
func fmtValueKey(v ir.Value) string {
	switch x := v.(type) {
	case *ir.Instr:
		return fmt.Sprintf("i%p", x)
	case *ir.Param:
		return fmt.Sprintf("p%d", x.Index)
	case *ir.ConstInt:
		return fmt.Sprintf("c%s#%d", x.Ty, x.Unsigned())
	case *ir.ConstFloat:
		return fmt.Sprintf("f%s#%x", x.Ty, x.V)
	case *ir.ConstNull:
		return "null"
	case *ir.ConstPtr:
		return fmt.Sprintf("cp#%x", x.Addr)
	case *ir.Undef:
		return fmt.Sprintf("u%p", x)
	case *ir.Global:
		return "g" + x.Name
	case *ir.Func:
		return "@" + x.Name
	}
	return "?"
}

func fmtCSEKey(in *ir.Instr) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d/%d/%s", in.Op, in.Pred, in.Ty)
	if in.SrcTy != nil {
		sb.WriteString(in.SrcTy.String())
	}
	for _, op := range in.Operands {
		sb.WriteByte('|')
		sb.WriteString(fmtValueKey(op))
	}
	return sb.String()
}

func fmtCheckKey(in *ir.Instr) string {
	var sb strings.Builder
	sb.WriteString(in.Callee().Name)
	for _, op := range in.Args() {
		sb.WriteByte('|')
		sb.WriteString(fmtValueKey(op))
	}
	return sb.String()
}

// TestCSEKeysMatchFmt: the byte-buffer keys spell exactly what the fmt
// spelling does, for every CSE-able instruction of every spec benchmark
// before and after optimization, and for check calls over every operand
// kind.
func TestCSEKeysMatchFmt(t *testing.T) {
	var k keyBuf
	n := 0
	checkModule := func(m *ir.Module) {
		m.Definitions(func(f *ir.Func) {
			f.Instrs(func(in *ir.Instr) bool {
				if !k.cse(in) {
					return true
				}
				n++
				if got, want := string(k.b), fmtCSEKey(in); got != want {
					t.Errorf("@%s %s: key %q, fmt spelling %q", f.Name, in.Name, got, want)
				}
				return true
			})
		})
	}
	for _, b := range spec.All() {
		m, err := b.Compile()
		if err != nil {
			t.Fatal(err)
		}
		checkModule(m)
		RunPipeline(m, EPVectorizerStart, nil, PipelineOptions{Level: 3})
		checkModule(m)
	}
	if n == 0 {
		t.Fatal("no CSE-able instructions seen")
	}

	m := ir.NewModule("t")
	g := m.NewGlobal("g", ir.I64, nil)
	chk := m.NewDecl(rt.SBCheck, ir.FuncOf(ir.Void, ir.PointerTo(ir.I8), ir.I64, ir.F64, ir.PointerTo(ir.I8), ir.PointerTo(ir.I64), ir.PointerTo(ir.I8)))
	f := m.NewFunc("f", ir.FuncOf(ir.Void, ir.I64), "x")
	bld := ir.NewBuilder(f)
	bld.SetBlock(f.NewBlock("entry"))
	p := bld.Alloca(ir.I8)
	for _, args := range [][]ir.Value{
		{p, f.Params[0], ir.NewFloat(ir.F64, 1.5), ir.NewNull(ir.PointerTo(ir.I8)), g, ir.NewUndef(ir.PointerTo(ir.I8))},
		{ir.NewConstPtr(ir.PointerTo(ir.I8), 0x5000_0000_0010), ir.NewInt(ir.I64, -3), ir.NewFloat(ir.F64, 0), p, g, chk},
	} {
		call := bld.Call(chk, args...)
		if !k.check(call) {
			t.Fatal("check call has no key")
		}
		if got, want := string(k.b), fmtCheckKey(call); got != want {
			t.Errorf("check key %q, fmt spelling %q", got, want)
		}
	}
}

// TestCSEKeyProbeAllocFree: building a key over instruction, parameter and
// integer-constant operands and probing a table with it allocates nothing;
// only inserting a key does.
func TestCSEKeyProbeAllocFree(t *testing.T) {
	m, err := spec.ByName("181mcf").Compile()
	if err != nil {
		t.Fatal(err)
	}
	var ins []*ir.Instr
	m.Definitions(func(f *ir.Func) {
		f.Instrs(func(in *ir.Instr) bool {
			var k keyBuf
			if !k.cse(in) {
				return true
			}
			for _, op := range in.Operands {
				switch op.(type) {
				case *ir.Instr, *ir.Param, *ir.ConstInt:
				default:
					return true
				}
			}
			ins = append(ins, in)
			return true
		})
	})
	if len(ins) == 0 {
		t.Fatal("no CSE-able instructions")
	}
	table := map[string]*ir.Instr{}
	var k keyBuf
	allocs := testing.AllocsPerRun(10, func() {
		for _, in := range ins {
			k.cse(in)
			if table[string(k.b)] != nil {
				t.Fatal("probe hit an empty table")
			}
		}
	})
	if allocs != 0 {
		t.Errorf("building and probing %d keys allocated %.0f times", len(ins), allocs)
	}
}
