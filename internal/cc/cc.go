package cc

import (
	"fmt"

	"repro/internal/ir"
)

// Source is one translation unit.
type Source struct {
	Name string
	Code string
}

// Compile parses, type checks and lowers a program consisting of one or more
// translation units into a single linked IR module. Struct definitions,
// enum constants and #define macros are shared across the units (standing in
// for common headers); globals and functions are linked by name.
//
// Separate compilation still leaves its traces, as it does for the paper:
// an `extern T a[];` declaration in any unit marks the linked global as
// size-zero-declared, which is what deprives SoftBound of its bounds
// (Section 4.3).
func Compile(name string, sources ...Source) (m *ir.Module, err error) {
	defer func() {
		if r := recover(); r != nil {
			if ce, ok := r.(compileError); ok {
				m = nil
				err = ce
				return
			}
			panic(r)
		}
	}()

	macros := map[string][]Token{}
	structs := map[string]*StructInfo{}
	consts := map[string]int64{}
	anonSeq := 0

	var units []*Unit
	for _, src := range sources {
		toks := lex(src.Name, src.Code, macros)
		p := &parser{toks: toks, file: src.Name, structs: structs, consts: consts, anonSeq: &anonSeq}
		units = append(units, p.parseUnit())
	}

	cg := &codegen{
		mod:    ir.NewModule(name),
		sigs:   map[string]*funcSig{},
		gtypes: map[string]*CType{},
		strs:   map[string]*ir.Global{},
	}
	cg.linkGlobals(units)
	cg.linkFuncs(units)

	// Generate all function bodies.
	for _, u := range units {
		cg.file = u.File
		for _, fd := range u.Funcs {
			if fd.Body != nil {
				cg.emitFunc(fd)
			}
		}
	}

	if verr := ir.VerifyModule(cg.mod); verr != nil {
		return nil, fmt.Errorf("cc: generated module is malformed: %w", verr)
	}
	return cg.mod, nil
}

// mergedVar accumulates the declarations of one global across units.
type mergedVar struct {
	name     string
	ty       *CType
	init     InitVal
	hasDef   bool // a non-extern declaration exists
	hasInit  bool
	sizeZero bool // an extern [] declaration exists somewhere
	order    int
}

func (cg *codegen) linkGlobals(units []*Unit) {
	merged := map[string]*mergedVar{}
	var order []string

	for _, u := range units {
		for _, vd := range u.Vars {
			mv := merged[vd.Name]
			if mv == nil {
				mv = &mergedVar{name: vd.Name, order: len(order)}
				merged[vd.Name] = mv
				order = append(order, vd.Name)
			}
			ty := vd.Ty
			if vd.Extern && ty.Kind == CArray && ty.Len == 0 {
				// "extern T a[];" — size information is missing in this
				// unit (Section 4.3 of the paper).
				mv.sizeZero = true
				if mv.ty == nil {
					mv.ty = ty
				}
				continue
			}
			if ty.Kind == CArray && ty.Len == 0 && vd.Init != nil {
				ty = arrayOf(inferArrayLen(vd.Init, ty.Elem), ty.Elem)
			}
			if !vd.Extern {
				mv.hasDef = true
			}
			if vd.Init != nil {
				if mv.hasInit {
					panic(errf("cc: multiple initializers for global %q", vd.Name))
				}
				mv.hasInit = true
				mv.init = vd.Init
				mv.ty = ty
			} else if mv.ty == nil || (mv.ty.Kind == CArray && mv.ty.Len == 0) {
				mv.ty = ty
			}
		}
	}

	for _, name := range order {
		mv := merged[name]
		ty := mv.ty
		if ty.Kind == CArray && ty.Len == 0 {
			panic(errf("cc: global array %q is never defined with a size", name))
		}
		g := cg.mod.NewGlobal(name, ty.IR(), nil)
		cg.gtypes[name] = ty
		switch {
		case !mv.hasDef:
			// Extern-only: still give it storage so single-program runs
			// work, but remember the declaration-only nature.
			g.Linkage = ir.ExternalLinkage
		case mv.hasInit:
			g.Linkage = ir.ExternalLinkage
		default:
			// Tentative definition: common linkage, relevant for the
			// Low-Fat common-to-weak transformation (Appendix A.6).
			g.Linkage = ir.CommonLinkage
		}
		g.SizeZeroDecl = mv.sizeZero
		if mv.hasInit {
			g.Init = cg.lowerGlobalInit(mv.init, ty)
		}
	}
}

// inferArrayLen determines the length of an incomplete array from its
// initializer.
func inferArrayLen(init InitVal, elem *CType) int {
	switch iv := init.(type) {
	case *InitList:
		return len(iv.Items)
	case *InitExpr:
		if s, ok := iv.X.(*StrLit); ok && elem.isInteger() && elem.Bits == 8 {
			return len(s.S) + 1
		}
	}
	panic(errf("cc: cannot infer array length from initializer"))
}

func (cg *codegen) linkFuncs(units []*Unit) {
	defined := map[string]bool{}
	for _, u := range units {
		for _, fd := range u.Funcs {
			sig := &funcSig{ret: fd.Ret, variadic: fd.Variadic}
			for _, p := range fd.Params {
				sig.params = append(sig.params, p.Ty)
			}
			if old := cg.sigs[fd.Name]; old != nil {
				if len(old.params) != len(sig.params) || !old.ret.same(sig.ret) {
					panic(errf("cc: conflicting declarations of function %q", fd.Name))
				}
			}
			if fd.Body != nil {
				if defined[fd.Name] {
					panic(errf("cc: multiple definitions of function %q", fd.Name))
				}
				defined[fd.Name] = true
			}
			cg.sigs[fd.Name] = sig

			irSig := cg.irSignature(sig)
			f := cg.mod.Func(fd.Name)
			if f == nil {
				names := make([]string, len(fd.Params))
				for i, p := range fd.Params {
					names[i] = p.Name
				}
				f = cg.mod.NewFunc(fd.Name, irSig, names...)
				f.External = fd.Body == nil
			}
			if fd.Body != nil {
				f.External = false
			}
		}
	}
}

func (cg *codegen) irSignature(sig *funcSig) *ir.Type {
	params := make([]*ir.Type, len(sig.params))
	for i, p := range sig.params {
		params[i] = p.IR()
	}
	if sig.variadic {
		return ir.VarargFuncOf(sig.ret.IR(), params...)
	}
	return ir.FuncOf(sig.ret.IR(), params...)
}

// libcOrUserFunc resolves a callee, creating external declarations for
// built-in library functions on first use.
func (cg *codegen) libcOrUserFunc(name string, sig *funcSig) *ir.Func {
	if f := cg.mod.Func(name); f != nil {
		return f
	}
	f := cg.mod.NewDecl(name, cg.irSignature(sig))
	return f
}

// libcFunc resolves a built-in library function by name.
func (cg *codegen) libcFunc(name string) *ir.Func {
	sig := libcSigs[name]
	if sig == nil {
		panic(errf("cc: unknown library function %q", name))
	}
	return cg.libcOrUserFunc(name, sig)
}

// stringGlobal interns a string literal as a global char array.
func (cg *codegen) stringGlobal(s string) *ir.Global {
	if g, ok := cg.strs[s]; ok {
		return g
	}
	cg.strSeq++
	name := fmt.Sprintf(".str.%d", cg.strSeq)
	data := append([]byte(s), 0)
	g := cg.mod.NewGlobal(name, ir.ArrayOf(len(data), ir.I8), ir.BytesInit{Data: data})
	cg.strs[s] = g
	cg.gtypes[name] = arrayOf(len(data), cChar)
	return g
}

// lowerGlobalInit lowers a parsed initializer to an IR static initializer.
func (cg *codegen) lowerGlobalInit(init InitVal, ty *CType) ir.Initializer {
	switch iv := init.(type) {
	case *InitExpr:
		return cg.lowerGlobalInitExpr(iv.X, ty)
	case *InitList:
		switch ty.Kind {
		case CArray:
			elems := make([]ir.Initializer, 0, len(iv.Items))
			for _, item := range iv.Items {
				elems = append(elems, cg.lowerGlobalInit(item, ty.Elem))
			}
			return ir.ArrayInit{Elems: elems}
		case CStruct:
			fields := make([]ir.Initializer, 0, len(iv.Items))
			for i, item := range iv.Items {
				fields = append(fields, cg.lowerGlobalInit(item, ty.Struct.Fields[i].Type))
			}
			return ir.StructInit{Fields: fields}
		default:
			if len(iv.Items) == 1 {
				return cg.lowerGlobalInit(iv.Items[0], ty)
			}
			panic(errf("cc: bad initializer list for %s", ty))
		}
	}
	return ir.ZeroInit{}
}

func (cg *codegen) lowerGlobalInitExpr(e Expr, ty *CType) ir.Initializer {
	// String literals.
	if s, ok := e.(*StrLit); ok {
		if ty.Kind == CArray {
			return ir.BytesInit{Data: append([]byte(s.S), 0)}
		}
		g := cg.stringGlobal(s.S)
		return ir.GlobalRefInit{G: g}
	}
	// Address-of / array-decay references to globals.
	if ty.isPtr() {
		switch x := e.(type) {
		case *Ident:
			if g := cg.mod.Global(x.Name); g != nil {
				return ir.GlobalRefInit{G: g}
			}
		case *Unary:
			if x.Op == "&" {
				if id, ok := x.X.(*Ident); ok {
					if g := cg.mod.Global(id.Name); g != nil {
						return ir.GlobalRefInit{G: g}
					}
				}
			}
		case *IntLit:
			if x.V == 0 {
				return ir.ZeroInit{}
			}
		}
		panic(errf("cc: unsupported pointer initializer for global"))
	}
	// Floating constants.
	if ty.Kind == CFloat {
		switch x := e.(type) {
		case *FloatLit:
			return ir.FloatInit{V: x.V}
		case *IntLit:
			return ir.FloatInit{V: float64(x.V)}
		case *Unary:
			if x.Op == "-" {
				if f, ok := x.X.(*FloatLit); ok {
					return ir.FloatInit{V: -f.V}
				}
				if i, ok := x.X.(*IntLit); ok {
					return ir.FloatInit{V: -float64(i.V)}
				}
			}
		}
		panic(errf("cc: unsupported float initializer for global"))
	}
	// Integer constant expressions.
	if v, ok := evalConst(e); ok {
		return ir.IntInit{V: v}
	}
	panic(errf("cc: global initializer is not constant"))
}

// libcSigs declares the built-in C library (no headers needed).
var libcSigs = map[string]*funcSig{
	"printf":  {ret: cIntT, params: []*CType{ptrTo(cChar)}, variadic: true},
	"puts":    {ret: cIntT, params: []*CType{ptrTo(cChar)}},
	"putchar": {ret: cIntT, params: []*CType{cIntT}},

	"malloc":  {ret: ptrTo(cVoid), params: []*CType{cULong}},
	"calloc":  {ret: ptrTo(cVoid), params: []*CType{cULong, cULong}},
	"realloc": {ret: ptrTo(cVoid), params: []*CType{ptrTo(cVoid), cULong}},
	"free":    {ret: cVoid, params: []*CType{ptrTo(cVoid)}},

	"memcpy":  {ret: ptrTo(cVoid), params: []*CType{ptrTo(cVoid), ptrTo(cVoid), cULong}},
	"memmove": {ret: ptrTo(cVoid), params: []*CType{ptrTo(cVoid), ptrTo(cVoid), cULong}},
	"memset":  {ret: ptrTo(cVoid), params: []*CType{ptrTo(cVoid), cIntT, cULong}},
	"memcmp":  {ret: cIntT, params: []*CType{ptrTo(cVoid), ptrTo(cVoid), cULong}},

	"strlen":  {ret: cULong, params: []*CType{ptrTo(cChar)}},
	"strcpy":  {ret: ptrTo(cChar), params: []*CType{ptrTo(cChar), ptrTo(cChar)}},
	"strncpy": {ret: ptrTo(cChar), params: []*CType{ptrTo(cChar), ptrTo(cChar), cULong}},
	"strcmp":  {ret: cIntT, params: []*CType{ptrTo(cChar), ptrTo(cChar)}},
	"strncmp": {ret: cIntT, params: []*CType{ptrTo(cChar), ptrTo(cChar), cULong}},
	"strcat":  {ret: ptrTo(cChar), params: []*CType{ptrTo(cChar), ptrTo(cChar)}},
	"strchr":  {ret: ptrTo(cChar), params: []*CType{ptrTo(cChar), cIntT}},

	"exit":  {ret: cVoid, params: []*CType{cIntT}},
	"abort": {ret: cVoid, params: nil},
	"rand":  {ret: cIntT, params: nil},
	"srand": {ret: cVoid, params: []*CType{cUInt}},
	"abs":   {ret: cIntT, params: []*CType{cIntT}},

	"sqrt":  {ret: cDoubleT, params: []*CType{cDoubleT}},
	"fabs":  {ret: cDoubleT, params: []*CType{cDoubleT}},
	"exp":   {ret: cDoubleT, params: []*CType{cDoubleT}},
	"log":   {ret: cDoubleT, params: []*CType{cDoubleT}},
	"sin":   {ret: cDoubleT, params: []*CType{cDoubleT}},
	"cos":   {ret: cDoubleT, params: []*CType{cDoubleT}},
	"floor": {ret: cDoubleT, params: []*CType{cDoubleT}},
	"ceil":  {ret: cDoubleT, params: []*CType{cDoubleT}},
	"pow":   {ret: cDoubleT, params: []*CType{cDoubleT, cDoubleT}},
}
