package ir

import "fmt"

// Op identifies an instruction opcode.
type Op int

// Instruction opcodes. The set mirrors the LLVM 12 instructions that the
// paper's instrumentation framework handles (cf. Table 1).
const (
	OpInvalid Op = iota

	// Integer arithmetic and bitwise operations.
	OpAdd
	OpSub
	OpMul
	OpSDiv
	OpUDiv
	OpSRem
	OpURem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpLShr
	OpAShr

	// Floating-point arithmetic.
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv

	// Comparisons.
	OpICmp
	OpFCmp

	// Conversions.
	OpTrunc
	OpZExt
	OpSExt
	OpFPTrunc
	OpFPExt
	OpFPToSI
	OpSIToFP
	OpPtrToInt
	OpIntToPtr
	OpBitcast

	// Memory.
	OpAlloca
	OpLoad
	OpStore
	OpGEP

	// SSA / control values.
	OpPhi
	OpSelect
	OpCall

	// Terminators.
	OpRet
	OpBr
	OpCondBr
	OpUnreachable
)

var opNames = map[Op]string{
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpSDiv: "sdiv", OpUDiv: "udiv",
	OpSRem: "srem", OpURem: "urem", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpShl: "shl", OpLShr: "lshr", OpAShr: "ashr",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv",
	OpICmp: "icmp", OpFCmp: "fcmp",
	OpTrunc: "trunc", OpZExt: "zext", OpSExt: "sext",
	OpFPTrunc: "fptrunc", OpFPExt: "fpext", OpFPToSI: "fptosi", OpSIToFP: "sitofp",
	OpPtrToInt: "ptrtoint", OpIntToPtr: "inttoptr", OpBitcast: "bitcast",
	OpAlloca: "alloca", OpLoad: "load", OpStore: "store", OpGEP: "getelementptr",
	OpPhi: "phi", OpSelect: "select", OpCall: "call",
	OpRet: "ret", OpBr: "br", OpCondBr: "br", OpUnreachable: "unreachable",
}

// String returns the mnemonic of the opcode.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Pred is an integer or float comparison predicate.
type Pred int

// Comparison predicates (icmp and fcmp share the enumeration; the U/S
// prefixes follow the LLVM naming).
const (
	PredEQ Pred = iota
	PredNE
	PredSLT
	PredSLE
	PredSGT
	PredSGE
	PredULT
	PredULE
	PredUGT
	PredUGE
	// Float predicates (ordered comparisons only; the frontend does not
	// emit unordered comparisons).
	PredOEQ
	PredONE
	PredOLT
	PredOLE
	PredOGT
	PredOGE
)

var predNames = map[Pred]string{
	PredEQ: "eq", PredNE: "ne", PredSLT: "slt", PredSLE: "sle",
	PredSGT: "sgt", PredSGE: "sge", PredULT: "ult", PredULE: "ule",
	PredUGT: "ugt", PredUGE: "uge",
	PredOEQ: "oeq", PredONE: "one", PredOLT: "olt", PredOLE: "ole",
	PredOGT: "ogt", PredOGE: "oge",
}

// String returns the textual predicate.
func (p Pred) String() string { return predNames[p] }

// Instr is a single IR instruction. All opcodes share this representation;
// opcode-specific information lives in the dedicated fields below.
type Instr struct {
	Op Op
	// Ty is the result type (Void for instructions without a result).
	Ty *Type
	// Operands are the value operands. Their interpretation depends on Op:
	//   store:   [value, pointer]
	//   load:    [pointer]
	//   gep:     [srcPointer, index...]
	//   call:    [callee(*Func), args...]
	//   select:  [cond, trueVal, falseVal]
	//   phi:     incoming values, parallel to PhiBlocks
	//   condbr:  [cond]
	//   ret:     [] or [value]
	//   alloca:  [] or [count] (array alloca)
	//   others:  natural order
	Operands []Value
	// Pred is the predicate of icmp/fcmp instructions.
	Pred Pred
	// AllocTy is the allocated element type of an alloca.
	AllocTy *Type
	// SrcTy is the pointee type a gep indexes into (the type of
	// *Operands[0] at creation time; kept explicitly because bitcasts can
	// change the static pointer type).
	SrcTy *Type
	// PhiBlocks are the incoming blocks of a phi, parallel to Operands.
	PhiBlocks []*Block
	// Succs are the successor blocks of a terminator (br: 1; condbr: 2,
	// [then, else]).
	Succs []*Block
	// Name is the SSA name of the result (empty for void instructions).
	Name string
	// Block is the containing basic block.
	Block *Block
	// Tag marks instructions inserted by the memory-safety instrumentation
	// ("check", "witness", "invariant", ...). Empty for regular code. The
	// tag is informational: optimization passes must not special-case it.
	Tag string
	// Loc is the C source location this instruction was lowered from (zero
	// for synthetic instructions). Instrumentation ops inherit the location
	// of the instruction they guard, so every check traces back to source.
	Loc Loc
	// Site is the check-site identifier assigned by the instrumentation
	// (telemetry.SiteTable); 0 means "no site". Clones (inlining, unrolling)
	// keep the id of their original, so dynamic counts attribute to the
	// static site of origin.
	Site int32
	// AllocSite is the allocation-site identifier assigned by the
	// instrumentation (telemetry.AllocTable) to allocas and malloc-family
	// calls; 0 means "no site". Like Site, clones keep the id of their
	// original so violation reports attribute to the static allocation.
	AllocSite int32

	// id is a function-unique identifier used for deterministic ordering.
	id int
}

// Type returns the result type of the instruction.
func (in *Instr) Type() *Type { return in.Ty }

// Ref renders the instruction reference, e.g. "%v7".
func (in *Instr) Ref() string {
	if in.Name == "" {
		return "%<void>"
	}
	return "%" + in.Name
}

// ID returns the function-unique instruction id (creation order).
func (in *Instr) ID() int { return in.id }

// IsTerminator reports whether the instruction terminates a basic block.
func (in *Instr) IsTerminator() bool {
	switch in.Op {
	case OpRet, OpBr, OpCondBr, OpUnreachable:
		return true
	}
	return false
}

// Callee returns the called function of a call instruction, or nil if the
// instruction is not a call.
func (in *Instr) Callee() *Func {
	if in.Op != OpCall || len(in.Operands) == 0 {
		return nil
	}
	f, _ := in.Operands[0].(*Func)
	return f
}

// Args returns the argument operands of a call instruction.
func (in *Instr) Args() []Value {
	if in.Op != OpCall {
		return nil
	}
	return in.Operands[1:]
}

// HasSideEffects reports whether the instruction may affect state observable
// outside its own result: memory writes, control flow, calls to functions
// that are not known to be pure. Dead-code elimination only removes
// instructions without side effects; this is the property that lets the later
// pipeline stages delete unused metadata loads but never checks (Section 5.4
// of the paper relies on exactly this asymmetry).
func (in *Instr) HasSideEffects() bool {
	switch in.Op {
	case OpStore, OpRet, OpBr, OpCondBr, OpUnreachable:
		return true
	case OpCall:
		if f := in.Callee(); f != nil {
			return !f.Pure
		}
		return true
	case OpAlloca:
		// Allocas carry allocation state; removing genuinely dead ones is
		// legal, but only when no derived pointer survives. DCE handles
		// them specially, so report no side effect here only for unused
		// ones; conservatively treat as effectful and let mem2reg/DCE
		// remove them explicitly.
		return false
	}
	return false
}

// IsBinaryOp reports whether the opcode is an integer or float binary
// arithmetic/bitwise operation.
func (in *Instr) IsBinaryOp() bool {
	return in.Op >= OpAdd && in.Op <= OpFDiv
}

// IsCast reports whether the opcode is a conversion.
func (in *Instr) IsCast() bool {
	return in.Op >= OpTrunc && in.Op <= OpBitcast
}

// AccessedPointer returns the pointer operand of a load or store, or nil.
func (in *Instr) AccessedPointer() Value {
	switch in.Op {
	case OpLoad:
		return in.Operands[0]
	case OpStore:
		return in.Operands[1]
	}
	return nil
}

// AccessWidth returns the number of bytes a load or store accesses, or 0 for
// other instructions. Checks must ensure the entire width is inside the
// allocation (Figure 1 of the paper).
func (in *Instr) AccessWidth() int {
	switch in.Op {
	case OpLoad:
		return in.Ty.Size()
	case OpStore:
		return in.Operands[0].Type().Size()
	}
	return 0
}

// StoredValue returns the value operand of a store, or nil.
func (in *Instr) StoredValue() Value {
	if in.Op != OpStore {
		return nil
	}
	return in.Operands[0]
}

// AddPhiIncoming appends an incoming (value, block) pair to a phi.
func (in *Instr) AddPhiIncoming(v Value, b *Block) {
	if in.Op != OpPhi {
		panic("ir: AddPhiIncoming on non-phi")
	}
	in.Operands = append(in.Operands, v)
	in.PhiBlocks = append(in.PhiBlocks, b)
}

// PhiIncomingFor returns the incoming value for predecessor block b, or nil
// if the phi has no entry for b.
func (in *Instr) PhiIncomingFor(b *Block) Value {
	for i, pb := range in.PhiBlocks {
		if pb == b {
			return in.Operands[i]
		}
	}
	return nil
}
