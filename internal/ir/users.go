package ir

// Users maps each value to the instructions of one function that use it as an
// operand. It is a snapshot: mutations to the function invalidate it.
type Users map[Value][]*Instr

// ComputeUsers scans the function and returns the use map.
func ComputeUsers(f *Func) Users {
	u := make(Users)
	f.Instrs(func(in *Instr) bool {
		for _, op := range in.Operands {
			u[op] = append(u[op], in)
		}
		return true
	})
	return u
}

// ReplaceAllUses rewrites every operand occurrence of old within f to new.
// It returns the number of replaced operand slots.
func ReplaceAllUses(f *Func, old, new Value) int {
	n := 0
	f.Instrs(func(in *Instr) bool {
		for i, op := range in.Operands {
			if op == old {
				in.Operands[i] = new
				n++
			}
		}
		return true
	})
	return n
}

// EraseInstr removes in from its block after replacing all remaining uses of
// its result with undef. Prefer replacing uses with a meaningful value first.
func EraseInstr(f *Func, in *Instr) {
	if in.Ty != Void {
		ReplaceAllUses(f, in, NewUndef(in.Ty))
	}
	if in.Block != nil {
		in.Block.Remove(in)
	}
}

// Preds returns the predecessor blocks of b within its function, in
// deterministic function block order.
func Preds(b *Block) []*Block {
	var preds []*Block
	for _, p := range b.Parent.Blocks {
		for _, s := range p.Succs() {
			if s == b {
				preds = append(preds, p)
				break
			}
		}
	}
	return preds
}

// Replacer batches the use replacements of one pass over one function. The
// pass records old → new with Replace instead of calling ReplaceAllUses,
// which scans the whole function each time; Apply then rewrites the
// function once.
//
// Until Apply, operands still name replaced instructions. A pass keeps the
// eager view by resolving the operands of every instruction it visits
// (ResolveOperands) and every value it reads elsewhere (Resolve) through the
// recorded chain first: the instruction then reads what an eager
// ReplaceAllUses would have left. The one difference: Apply also rewrites a
// use of a replaced instruction that the pass created after the
// replacement, which an eager rewrite would have left alone; passes never
// create such uses.
//
// The zero Replacer is not usable; call NewReplacer.
type Replacer struct {
	f *Func
	// at holds 1 + the index in recs of each replaced instruction's
	// record, by instruction ID; it is allocated on the first Replace.
	at   []int32
	recs []replacement
}

type replacement struct {
	old *Instr
	new Value
}

// NewReplacer returns an empty Replacer for f.
func NewReplacer(f *Func) Replacer { return Replacer{f: f} }

// Replace records that every use of old becomes a use of new (resolved
// through the earlier replacements). A second replacement of the same
// instruction is ignored: an eager rewrite would find no use left.
func (r *Replacer) Replace(old *Instr, new Value) {
	if r.lookup(old) != nil {
		return
	}
	new = r.Resolve(new)
	if new == Value(old) {
		return
	}
	if old.id >= len(r.at) {
		n := r.f.MaxID()
		if n <= old.id {
			n = old.id + 1
		}
		at := make([]int32, n)
		copy(at, r.at)
		r.at = at
	}
	r.recs = append(r.recs, replacement{old, new})
	r.at[old.id] = int32(len(r.recs))
}

// lookup returns the recorded replacement of in, or nil.
func (r *Replacer) lookup(in *Instr) Value {
	if in.id < len(r.at) {
		if i := r.at[in.id] - 1; i >= 0 && r.recs[i].old == in {
			return r.recs[i].new
		}
	}
	return nil
}

// Resolve returns what v stands for after the recorded replacements. A nil
// Replacer resolves nothing.
func (r *Replacer) Resolve(v Value) Value {
	if r == nil || len(r.recs) == 0 {
		return v
	}
	for {
		in, ok := v.(*Instr)
		if !ok {
			return v
		}
		nv := r.lookup(in)
		if nv == nil {
			return v
		}
		v = nv
	}
}

// ResolveOperands rewrites in's operands through the recorded replacements.
func (r *Replacer) ResolveOperands(in *Instr) {
	if len(r.recs) == 0 {
		return
	}
	for i, op := range in.Operands {
		in.Operands[i] = r.Resolve(op)
	}
}

// Apply rewrites every operand of the function through the recorded
// replacements, then forgets them.
func (r *Replacer) Apply() {
	if len(r.recs) == 0 {
		return
	}
	for _, b := range r.f.Blocks {
		for _, in := range b.Instrs {
			r.ResolveOperands(in)
		}
	}
	clear(r.at)
	clear(r.recs)
	r.recs = r.recs[:0]
}
