// Package bytecode is the compiled execution engine: it lowers an ir.Module
// to a flat, register-based bytecode and interprets it in a tight dispatch
// loop. The tree-walking interpreter of internal/vm re-dispatches on operand
// kinds (instruction result? constant? global?) for every operand of every
// executed instruction; here that resolution happens once, at compile time:
//
//   - instruction results, parameters and constants become register slots
//     (constants, globals and function addresses are materialized into a
//     per-function constant pool bound at engine-creation time),
//   - blocks become jump offsets,
//   - phis become pre-resolved parallel-copy plans executed on edges,
//   - runtime-intrinsic calls (mi_sb_check, mi_lf_check, ...) become
//     opcodes of their own,
//   - the per-instruction cost of the vm.CostModel is baked into each op.
//
// The engine drives an ordinary *vm.VM for all runtime state — address
// space, allocators, metadata trie, shadow stack, libc handlers, statistics
// — so program-visible semantics, statistics and error classification are
// identical to the reference interpreter by construction. A differential
// test (diff_test.go) holds the two engines to byte-identical outputs and
// statistics over every spec benchmark and the fault-injection matrix.
package bytecode

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/ir"
	"repro/internal/vm"
)

// EngineKind selects the execution engine for code paths (harness,
// fault-injection campaign, functional suite, campaign server) that support
// more than one.
type EngineKind int

// Engine kinds.
const (
	// EngineTree is the tree-walking reference interpreter (internal/vm).
	EngineTree EngineKind = iota
	// EngineBytecode is the compiled register-bytecode engine.
	EngineBytecode
	// EngineCompiler is the bytecode engine plus native code: the same
	// lowering, and each function with native code (native_gen.go) enters it
	// at function entry. A function without native code, a bailed native
	// invocation and a program that cannot bind native code run on the
	// bytecode dispatch loop.
	EngineCompiler
)

// String names the engine.
func (k EngineKind) String() string {
	switch k {
	case EngineBytecode:
		return "bytecode"
	case EngineCompiler:
		return "compiler"
	}
	return "tree"
}

// EngineNames lists the valid -engine flag values in parse order. All CLIs
// and the campaign server share this set through ParseEngine, so an unknown
// name is rejected everywhere with the same message.
func EngineNames() []string { return []string{"tree", "bytecode", "compiler"} }

// ParseEngine parses an -engine flag value, rejecting unknown names with a
// message that lists the valid set.
func ParseEngine(s string) (EngineKind, error) {
	switch s {
	case "tree":
		return EngineTree, nil
	case "bytecode":
		return EngineBytecode, nil
	case "compiler":
		return EngineCompiler, nil
	}
	return EngineTree, fmt.Errorf("unknown engine %q (valid engines: %s)", s, strings.Join(EngineNames(), ", "))
}

// opcode enumerates the bytecode operations. Opcodes below opPhiCopy
// correspond one-to-one to a counted IR instruction and share the step /
// instruction-count / cost preamble; opPhiCopy and opErrRaw are
// synthetic (edge copies, deferred compile diagnostics) and do their own
// accounting.
type opcode uint16

const (
	// Integer arithmetic: dst = (a OP b) & imm.
	opAdd opcode = iota
	opSub
	opMul
	opSDiv
	opSRem
	opUDiv
	opURem
	opAnd
	opOr
	opXor
	opShl
	opLShr
	opAShr

	// Float arithmetic on wbits-wide floats.
	opFAdd
	opFSub
	opFMul
	opFDiv

	// Integer comparisons (predicate baked into the opcode, parallel to
	// ir.PredEQ..PredUGE).
	opEQ
	opNE
	opSLT
	opSLE
	opSGT
	opSGE
	opULT
	opULE
	opUGT
	opUGE

	// Ordered float comparisons (parallel to ir.PredOEQ..PredOGE).
	opFOEQ
	opFONE
	opFOLT
	opFOLE
	opFOGT
	opFOGE

	// Conversions.
	opTrunc  // dst = a & imm (also zext: imm is the source mask)
	opSExt   // dst = sext(a, wbits) & imm
	opFPCvt  // dst = floatBits(imm, bitsToFloat(wbits, a))
	opFPToSI // dst = int64(bitsToFloat(wbits, a)) & imm
	opSIToFP // dst = floatBits(imm, float64(sext(a, wbits)))
	opMove   // dst = a (ptrtoint, inttoptr, bitcast)

	// Memory.
	opLoad   // dst = mem[a], wbits bytes
	opStore  // mem[b] = a, wbits bytes
	opAlloca // dst = alloca(imm * (a<0 ? 1 : regs[a])), align x; tracked under AllocSite when recording
	opGEP    // dst = a + plan geps[x]
	opGEPDyn // dst via runtime type walk gepDyns[x]

	opSelect // dst = a != 0 ? b : c

	// Calls.
	opCallInt // intCalls[x]
	opCallExt // extCalls[x]

	// Runtime intrinsics (replicating internal/vm's mirt.go handlers,
	// charged the call-instruction cost plus the handler cost). imm carries
	// the SiteID of the check and metadata intrinsics, which call the VM's
	// runtime operation for that intrinsic — the one the tree interpreter's
	// handler calls. It bumps the site profile and records forensics only
	// when the VM does, so plain, profiled and forensic programs lower to
	// the same ops; the range checks below call it from Engine.gate.
	opSBLoadBase  // dst = trie[a].base
	opSBLoadBound // dst = trie[a].bound
	opSBStoreMD   // trie[a] = {b, c}
	opSBCheck     // check(ptr=a, width=b, base=c, bound=d)
	opSBSSAlloc
	opSBSSSetArg
	opSBSSArgBase
	opSBSSArgBound
	opSBSSSetRet
	opSBSSRetBase
	opSBSSRetBound
	opSBSSPop
	opLFBase     // dst = lowfat.Base(a)
	opLFCheck    // check(ptr=a, width=b, base=c)
	opLFCheckInv // invariant check(ptr=a, base=b)

	// Hoisted range checks (opt.HoistChecks). The calls are void, so the
	// dst slot is free to carry the loop's entry condition register.
	opSBCheckRange // check(lo=a, hi=b, width=x, base=c, bound=d, nonempty=dst)
	opLFCheckRange // check(lo=a, hi=b, width=x, base=c, nonempty=dst)

	// Control flow.
	opBr     // pc = b
	opCondBr // pc = a != 0 ? b : c
	opRet    // return a < 0 ? 0 : regs[a]

	// Counted runtime-error op: a lowering-time diagnosis (unsupported op,
	// aggregate access, indirect call, unreachable) deferred to execution so
	// unexecuted malformed code stays free, exactly like the reference
	// interpreter.
	opErrInstr

	// --- uncounted ops below this point ---

	// opPhiCopy performs the parallel copy phis[x] and jumps to b. It adds
	// len(phis) to Stats.Instrs (as the reference interpreter does on block
	// entry) but no steps or cost.
	opPhiCopy
	// opErrRaw raises errs[x] without instruction accounting (fell-through
	// block, phi without incoming).
	opErrRaw
)

// opUncountedStart splits counted from synthetic opcodes for the dispatch
// preamble.
const opUncountedStart = opPhiCopy

// op is one bytecode operation. Field meaning is opcode-specific (see the
// opcode comments); dst/a/b/c/d are register indices (-1 when absent), imm
// carries masks and immediates, x indexes a per-function side table.
type op struct {
	imm   uint64
	cost  uint64
	dst   int32
	a     int32
	b     int32
	c     int32
	d     int32
	x     int32
	instr *ir.Instr
	code  opcode
	wbits uint8
}

type constKind uint8

const (
	constRaw constKind = iota
	constGlobal
	constFunc
)

// constEntry is one constant-pool slot. Globals and functions are
// relocations: their addresses are resolved per VM when an Engine binds the
// program.
type constEntry struct {
	kind constKind
	val  uint64
	g    *ir.Global
	f    *ir.Func
}

// gepStep is one pre-resolved GEP index: either a constant byte offset
// (reg < 0) or a register scaled by a constant element size.
type gepStep struct {
	reg   int32
	sh    uint8 // sign-extension shift for the index register
	off   int64
	scale int64
}

type gepPlan struct{ steps []gepStep }

// gepDynPlan is the slow-path GEP: a runtime type walk, used only when a
// struct field index is not a compile-time constant (the reference
// interpreter resolves it dynamically, so we must too).
type gepDynPlan struct {
	srcTy *ir.Type
	idx   []dynIdx
}

type dynIdx struct {
	reg int32
	sh  uint8
}

// phiPlan is the parallel copy for one CFG edge: all sources are read
// before any destination is written. seq marks a plan whose copies may run
// one after another in order, because no destination is a later source.
type phiPlan struct {
	srcs, dsts []int32
	seq        bool
}

// orderSafe reports whether copying srcs[i] to dsts[i] for i = 0, 1, ... in
// turn gives the parallel copy's result: no destination is overwritten
// before a later copy reads it.
func orderSafe(srcs, dsts []int32) bool {
	for i, d := range dsts {
		for _, s := range srcs[i+1:] {
			if d == s {
				return false
			}
		}
	}
	return true
}

type intCall struct {
	callee *ir.Func
	fn     *Fn
	args   []int32
}

type extCall struct {
	name  string
	instr *ir.Instr
	args  []int32
}

type errInfo struct {
	msg   string
	trace bool
}

// Fn is one compiled function.
type Fn struct {
	idx int
	ir  *ir.Func
	ops []op
	// Register file layout: [0, nparams) parameters, then instruction
	// results, then the constant pool at [constBase, nregs).
	nparams   int
	constBase int
	nregs     int
	consts    []constEntry

	geps     []gepPlan
	gepDyns  []gepDynPlan
	phis     []phiPlan
	intCalls []intCall
	extCalls []extCall
	errs     []errInfo
}

// Program is a compiled module. The bytecode itself is immutable after
// Compile and may be shared by any number of Engines (each Engine binds its
// own per-VM state).
type Program struct {
	mod    *ir.Module
	cm     vm.CostModel
	prof   bool
	rec    bool
	tier   EngineKind
	fns    []*Fn
	byFunc map[*ir.Func]*Fn
	main   *Fn

	// Native-tier state (compiler tier only): the build-once outcome of
	// lowering this program to a Go plugin (native.go). Published atomically
	// so concurrent Engines sharing the program build it exactly once; a nil
	// natState.prog records a failed build so it is not retried.
	nat   atomic.Pointer[natState]
	natMu sync.Mutex
}

// Tier reports the engine tier the program was compiled for (EngineBytecode
// or EngineCompiler).
func (p *Program) Tier() EngineKind { return p.tier }

// Module returns the module the program was compiled from. Bytecode
// references the module's instruction and global objects, so an Engine may
// only bind the program to a VM created for this exact module.
func (p *Program) Module() *ir.Module { return p.mod }

// NumOps returns the total op count across all functions (diagnostics).
func (p *Program) NumOps() int {
	n := 0
	for _, fn := range p.fns {
		n += len(fn.ops)
	}
	return n
}

// RunOn executes the VM's module under the selected engine. Under
// EngineTree it is machine.Run(). Under EngineBytecode and EngineCompiler
// the module is compiled for that tier and executed by a fresh Engine bound
// to the VM. Nothing is cached: a program is bound to the exact module
// instance it was compiled from, and callers run each module instance once.
func RunOn(kind EngineKind, machine *vm.VM) (int32, error) {
	if kind != EngineBytecode && kind != EngineCompiler {
		return machine.Run()
	}
	opts := machine.Options()
	prog := compileTier(machine.Mod, machine.CostModel(), opts.SiteProfile, opts.Forensics, kind)
	eng, err := NewEngine(prog, machine)
	if err != nil {
		return 0, err
	}
	return eng.Run()
}
