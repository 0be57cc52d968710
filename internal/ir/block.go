package ir

// Block is a basic block: a straight-line sequence of instructions ending in
// exactly one terminator.
type Block struct {
	Name   string
	Parent *Func
	Instrs []*Instr

	// id is a function-unique identifier (creation order).
	id int
}

// ID returns the function-unique block id.
func (b *Block) ID() int { return b.id }

// Ref renders the block reference, e.g. "%entry".
func (b *Block) Ref() string { return "%" + b.Name }

// Terminator returns the block's terminating instruction, or nil if the
// block is not (yet) terminated.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	last := b.Instrs[len(b.Instrs)-1]
	if !last.IsTerminator() {
		return nil
	}
	return last
}

// Succs returns the successor blocks.
func (b *Block) Succs() []*Block {
	t := b.Terminator()
	if t == nil {
		return nil
	}
	return t.Succs
}

// Append adds an instruction at the end of the block (before nothing; callers
// must not append past a terminator).
func (b *Block) Append(in *Instr) {
	in.Block = b
	b.Instrs = append(b.Instrs, in)
}

// InsertBefore inserts in immediately before pos, which must be in the block.
func (b *Block) InsertBefore(in, pos *Instr) {
	idx := b.indexOf(pos)
	if idx < 0 {
		panic("ir: InsertBefore: position not in block")
	}
	in.Block = b
	b.Instrs = append(b.Instrs, nil)
	copy(b.Instrs[idx+1:], b.Instrs[idx:])
	b.Instrs[idx] = in
}

// InsertAfter inserts in immediately after pos, which must be in the block.
func (b *Block) InsertAfter(in, pos *Instr) {
	idx := b.indexOf(pos)
	if idx < 0 {
		panic("ir: InsertAfter: position not in block")
	}
	in.Block = b
	b.Instrs = append(b.Instrs, nil)
	copy(b.Instrs[idx+2:], b.Instrs[idx+1:])
	b.Instrs[idx+1] = in
}

// Remove deletes the instruction from the block. The instruction's uses must
// already have been replaced.
func (b *Block) Remove(in *Instr) {
	idx := b.indexOf(in)
	if idx < 0 {
		return
	}
	copy(b.Instrs[idx:], b.Instrs[idx+1:])
	b.Instrs = b.Instrs[:len(b.Instrs)-1]
	in.Block = nil
}

func (b *Block) indexOf(in *Instr) int {
	for i, x := range b.Instrs {
		if x == in {
			return i
		}
	}
	return -1
}

// FirstNonPhi returns the first instruction that is not a phi, or nil for an
// empty block. Instrumentation code for phi witnesses must be inserted here.
func (b *Block) FirstNonPhi() *Instr {
	for _, in := range b.Instrs {
		if in.Op != OpPhi {
			return in
		}
	}
	return nil
}

// Phis returns the block's leading phi instructions.
func (b *Block) Phis() []*Instr {
	var phis []*Instr
	for _, in := range b.Instrs {
		if in.Op != OpPhi {
			break
		}
		phis = append(phis, in)
	}
	return phis
}

// Truncate shortens the block to its first n instructions. A pass that
// removes instructions while walking a block compacts the survivors into
// b.Instrs[:n] (clearing each removed instruction's Block) and truncates
// once, instead of calling Remove, which shifts the tail, per instruction.
func (b *Block) Truncate(n int) {
	clear(b.Instrs[n:])
	b.Instrs = b.Instrs[:n]
}
