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
//
// The zero CSE allocates its table per function; one from NewCSE keeps the
// table's storage from run to run, which is how the pipeline uses it.
type CSE struct{ t *scopedTable }

// NewCSE returns a CSE that reuses its table across runs. Its runs must
// not overlap.
func NewCSE() CSE { return CSE{t: new(scopedTable)} }

// Name returns the pass name.
func (CSE) Name() string { return "cse" }

// Run executes the pass.
func (c CSE) Run(f *ir.Func) bool {
	if f.Entry() == nil {
		return false
	}
	// The table never holds more entries than the function has CSE-able
	// instructions, so sizing it for them up front avoids every regrowth.
	n := 0
	f.Instrs(func(in *ir.Instr) bool {
		if cseable(in) {
			n++
		}
		return true
	})
	if n == 0 {
		return false
	}
	table := c.t
	if table == nil {
		table = new(scopedTable)
	}
	table.reserve(n)
	dt := analysis.NewDomTree(f)
	rw := ir.NewReplacer(f)
	var k keyBuf
	changed := false

	var walk func(b *ir.Block)
	walk = func(b *ir.Block) {
		nk, na := table.mark()
		kept := b.Instrs[:0]
		for _, in := range b.Instrs {
			rw.ResolveOperands(in)
			if k.cse(in) {
				if prev, have := table.m[string(k.b)]; have {
					rw.Replace(in, prev)
					in.Block = nil
					changed = true
					continue
				}
				table.insert(k.b, in)
			}
			kept = append(kept, in)
		}
		b.Truncate(len(kept))
		for _, c := range dt.Children(b) {
			walk(c)
		}
		table.release(nk, na)
	}
	walk(f.Entry())
	rw.Apply()
	return changed
}

// scopedTable is CSE's dominator-scoped table of available expressions. A
// key inserted while visiting a block is deleted when the walk leaves the
// block's subtree. The keys' bytes live on one byte stack, cut back with
// the scope, so an insert does not allocate a string of its own.
//
// This is safe because nothing reads a key after its scope ends: the stack
// bytes beyond a released mark backed only keys that were deleted from the
// map and dropped from keys, and when append moves the stack to a larger
// array, the earlier keys keep the old array, which is never written again.
type scopedTable struct {
	m     map[string]*ir.Instr
	keys  []string // inserted keys, innermost scope last
	arena []byte   // the keys' bytes, in insertion order
}

// keyBytes is the expected length of a key, for sizing the byte stack.
const keyBytes = 48

// reserve prepares an empty table for up to n keys at once; storage kept
// from an earlier run is reused.
func (t *scopedTable) reserve(n int) {
	if t.m == nil {
		t.m = make(map[string]*ir.Instr, n)
	}
	if cap(t.keys) < n {
		t.keys = make([]string, 0, n)
	}
	if cap(t.arena) < n*keyBytes {
		t.arena = make([]byte, 0, n*keyBytes)
	}
}

// insert adds key → in; the table keeps its own copy of the key bytes.
func (t *scopedTable) insert(key []byte, in *ir.Instr) {
	start := len(t.arena)
	t.arena = append(t.arena, key...)
	s := unsafe.String(&t.arena[start], len(key))
	t.m[s] = in
	t.keys = append(t.keys, s)
}

// mark returns the table's state at the start of a scope, for release.
func (t *scopedTable) mark() (keys, arena int) { return len(t.keys), len(t.arena) }

// release deletes every key inserted since the mark.
func (t *scopedTable) release(keys, arena int) {
	for _, k := range t.keys[keys:] {
		delete(t.m, k)
	}
	clear(t.keys[keys:])
	t.keys = t.keys[:keys]
	t.arena = t.arena[:arena]
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
	if !cseable(in) {
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

// cseable reports whether CSE may merge the instruction with an identical
// one.
func cseable(in *ir.Instr) bool {
	return in.IsBinaryOp() || in.Op == ir.OpICmp || in.Op == ir.OpFCmp ||
		in.Op == ir.OpGEP || in.Op == ir.OpSelect || in.IsCast()
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
