package ir

// CloneModule returns a deep copy of the module: globals, functions, blocks
// and instructions are fresh objects; constants are shared (they are
// immutable). Blocks and instructions keep their ids and every function
// keeps its id counter, so names derived from ids later (AdoptInstr, builder
// temporaries) come out the same in the clone as in the original. The
// harness uses this to instrument the same optimized program under several
// configurations without recompiling or re-optimizing it.
func CloneModule(m *Module) *Module {
	nm := NewModule(m.Name)
	gmap := make(map[*Global]*Global, len(m.Globals))
	fmap := make(map[*Func]*Func, len(m.Funcs))

	for _, g := range m.Globals {
		ng := nm.NewGlobal(g.Name, g.ValueTy, g.Init)
		ng.Linkage = g.Linkage
		ng.SizeZeroDecl = g.SizeZeroDecl
		ng.ExternalLib = g.ExternalLib
		ng.AllocSite = g.AllocSite
		gmap[g] = ng
	}
	// Re-map global-reference initializers to the cloned globals.
	for _, ng := range nm.Globals {
		ng.Init = remapInit(ng.Init, gmap, nil)
	}

	for _, f := range m.Funcs {
		names := make([]string, len(f.Params))
		for i, p := range f.Params {
			names[i] = p.Name
		}
		nf := nm.NewFunc(f.Name, f.Sig, names...)
		nf.External = f.External
		nf.Pure = f.Pure
		nf.Instrumented = f.Instrumented
		nf.IgnoreInstrumentation = f.IgnoreInstrumentation
		fmap[f] = nf
	}
	for _, ng := range nm.Globals {
		ng.Init = remapInit(ng.Init, nil, fmap)
	}

	for _, f := range m.Funcs {
		if f.IsDecl() {
			continue
		}
		cloneBody(f, fmap[f], gmap, fmap)
	}
	return nm
}

func remapInit(init Initializer, gmap map[*Global]*Global, fmap map[*Func]*Func) Initializer {
	switch v := init.(type) {
	case ArrayInit:
		elems := make([]Initializer, len(v.Elems))
		for i, e := range v.Elems {
			elems[i] = remapInit(e, gmap, fmap)
		}
		return ArrayInit{Elems: elems}
	case StructInit:
		fields := make([]Initializer, len(v.Fields))
		for i, e := range v.Fields {
			fields[i] = remapInit(e, gmap, fmap)
		}
		return StructInit{Fields: fields}
	case GlobalRefInit:
		if gmap != nil {
			if ng, ok := gmap[v.G]; ok {
				return GlobalRefInit{G: ng, Offset: v.Offset}
			}
		}
		return v
	case FuncRefInit:
		if fmap != nil {
			if nf, ok := fmap[v.F]; ok {
				return FuncRefInit{F: nf}
			}
		}
		return v
	default:
		return init
	}
}

func cloneBody(src, dst *Func, gmap map[*Global]*Global, fmap map[*Func]*Func) {
	bmap := make(map[*Block]*Block, len(src.Blocks))
	imap := make(map[*Instr]*Instr)

	for _, b := range src.Blocks {
		nb := &Block{Name: b.Name, Parent: dst, id: b.id}
		dst.Blocks = append(dst.Blocks, nb)
		bmap[b] = nb
	}
	dst.nextID = src.nextID

	mapValue := func(v Value) Value {
		switch x := v.(type) {
		case *Instr:
			return imap[x]
		case *Param:
			return dst.Params[x.Index]
		case *Global:
			return gmap[x]
		case *Func:
			return fmap[x]
		default:
			return v // constants are immutable and shared
		}
	}

	// First pass: create instruction shells so forward references (phis)
	// can be resolved in the second pass.
	for _, b := range src.Blocks {
		nb := bmap[b]
		for _, in := range b.Instrs {
			ni := &Instr{
				Op: in.Op, Ty: in.Ty, Pred: in.Pred, AllocTy: in.AllocTy,
				SrcTy: in.SrcTy, Name: in.Name, Tag: in.Tag,
				Loc: in.Loc, Site: in.Site, AllocSite: in.AllocSite,
				id: in.id,
			}
			imap[in] = ni
			nb.Append(ni)
		}
	}
	for _, b := range src.Blocks {
		for _, in := range b.Instrs {
			ni := imap[in]
			if len(in.Operands) > 0 {
				ni.Operands = make([]Value, len(in.Operands))
				for i, op := range in.Operands {
					ni.Operands[i] = mapValue(op)
				}
			}
			if len(in.PhiBlocks) > 0 {
				ni.PhiBlocks = make([]*Block, len(in.PhiBlocks))
				for i, pb := range in.PhiBlocks {
					ni.PhiBlocks[i] = bmap[pb]
				}
			}
			if len(in.Succs) > 0 {
				ni.Succs = make([]*Block, len(in.Succs))
				for i, s := range in.Succs {
					ni.Succs[i] = bmap[s]
				}
			}
		}
	}
}
