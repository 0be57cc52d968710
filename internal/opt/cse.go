package opt

import (
	"fmt"
	"strconv"
	"unsafe"

	"repro/internal/analysis"
	"repro/internal/ir"
)

// CSE performs dominator-scoped common-subexpression elimination over pure
// instructions (arithmetic, comparisons, casts, geps, selects). Calls are
// never merged — even pure runtime calls read state that may change between
// call sites (e.g. the SoftBound shadow stack).
type CSE struct{}

// Name returns the pass name.
func (CSE) Name() string { return "cse" }

// Run executes the pass.
func (CSE) Run(f *ir.Func) bool {
	if f.Entry() == nil {
		return false
	}
	dt := analysis.NewDomTree(f)
	changed := false
	var k keyBuf

	var walk func(b *ir.Block, table map[string]*ir.Instr)
	walk = func(b *ir.Block, table map[string]*ir.Instr) {
		var added []string
		for _, in := range append([]*ir.Instr(nil), b.Instrs...) {
			if !k.cse(in) {
				continue
			}
			if prev, have := table[string(k.b)]; have {
				ir.ReplaceAllUses(f, in, prev)
				b.Remove(in)
				changed = true
				continue
			}
			key := string(k.b)
			table[key] = in
			added = append(added, key)
		}
		for _, c := range dt.Children(b) {
			walk(c, table)
		}
		for _, key := range added {
			delete(table, key)
		}
	}
	walk(f.Entry(), make(map[string]*ir.Instr))
	return changed
}

// keyBuf builds the structural keys of CSE and CheckCSE in a reused byte
// buffer. Tables are probed with table[string(k.b)], which does not
// allocate, so a key is copied into a string only when it is inserted.
type keyBuf struct {
	b []byte
}

// cse builds the key of a pure, CSE-able instruction into k.b and reports
// whether the instruction has one. The key reads
// "op/pred/type[srctype]" followed by "|operand" per operand.
func (k *keyBuf) cse(in *ir.Instr) bool {
	switch {
	case in.IsBinaryOp(), in.Op == ir.OpICmp, in.Op == ir.OpFCmp,
		in.Op == ir.OpGEP, in.Op == ir.OpSelect:
	case in.IsCast():
	default:
		return false
	}
	b := strconv.AppendInt(k.b[:0], int64(in.Op), 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(in.Pred), 10)
	b = append(b, '/')
	b = appendType(b, in.Ty)
	if in.SrcTy != nil {
		b = appendType(b, in.SrcTy)
	}
	for _, op := range in.Operands {
		b = appendValue(append(b, '|'), op)
	}
	k.b = b
	return true
}

// appendValue appends the key of an operand: instructions and undefs by
// identity, everything else by value.
func appendValue(b []byte, v ir.Value) []byte {
	switch x := v.(type) {
	case *ir.Instr:
		return appendPtr(append(b, 'i'), unsafe.Pointer(x))
	case *ir.Param:
		return strconv.AppendInt(append(b, 'p'), int64(x.Index), 10)
	case *ir.ConstInt:
		b = append(appendType(append(b, 'c'), x.Ty), '#')
		return strconv.AppendUint(b, x.Unsigned(), 10)
	case *ir.ConstFloat:
		return fmt.Appendf(b, "f%s#%x", x.Ty, x.V)
	case *ir.ConstNull:
		return append(b, "null"...)
	case *ir.ConstPtr:
		return strconv.AppendUint(append(b, "cp#"...), x.Addr, 16)
	case *ir.Undef:
		return appendPtr(append(b, 'u'), unsafe.Pointer(x))
	case *ir.Global:
		return append(append(b, 'g'), x.Name...)
	case *ir.Func:
		return append(append(b, '@'), x.Name...)
	}
	return append(b, '?')
}

// appendPtr appends a pointer the way fmt's %p prints it.
func appendPtr(b []byte, p unsafe.Pointer) []byte {
	return strconv.AppendUint(append(b, "0x"...), uint64(uintptr(p)), 16)
}

// appendType appends t.String() without allocating for the scalar,
// pointer, array and named struct types that make up nearly every key.
func appendType(b []byte, t *ir.Type) []byte {
	switch {
	case t.Kind == ir.IntKind:
		return strconv.AppendInt(append(b, 'i'), int64(t.Bits), 10)
	case t.Kind == ir.PointerKind:
		return append(appendType(b, t.Elem), '*')
	case t.Kind == ir.ArrayKind:
		b = strconv.AppendInt(append(b, '['), int64(t.Len), 10)
		return append(appendType(append(b, " x "...), t.Elem), ']')
	case t.Kind == ir.StructKind && t.StructName != "":
		return append(append(b, '%'), t.StructName...)
	}
	return append(b, t.String()...)
}
