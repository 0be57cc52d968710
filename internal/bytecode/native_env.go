package bytecode

import (
	"unsafe"

	"repro/internal/vm"
)

// The native tier's plugin ABI and the engine's execution state.
//
// A natively compiled program is a generated Go plugin (native_gen.go emits
// the source, native.go builds and loads it). The plugin deliberately imports
// nothing from this repository: Go's plugin runtime requires every shared
// package to be byte-identical between host and plugin, and test binaries are
// routinely built with flags (-cover, -gcflags) that would break that for
// repo packages. Restricting the plugin to the standard library sidesteps the
// problem entirely — the only types that cross the boundary are unnamed
// composite types of primitives and closures, which are type-identical by
// structure.
//
// natEnv is that boundary. It is an *alias* for an unnamed struct type; the
// generator emits the exact same struct literal under its own alias, so the
// host-side type assertion on the looked-up symbol holds. Every Engine embeds
// one by value, and it holds the only copy of each piece of execution state:
// the step count and limit, views of the VM's vm.Stats and site profile, and
// the direct-mapped page cache. The dispatch loop and native code read and
// write the same words, so nothing is copied at a native entry, exit or gate.
// The remaining fields are host closures for everything the generated code
// cannot do itself: interrupt polling, page-table walks, slow-path memory
// access, metadata trie operations, error construction, and a one-op
// interpreter gate for rare ops (calls, allocas, shadow-stack traffic, range
// checks, dynamic GEPs); they are set only when native code is bound.
//
// Any change to this struct must be mirrored byte-for-byte in the source the
// generator emits (natEnvDecl in native_gen.go) — the two spellings are
// compared by the compiler's structural identity, so a field rename or
// reorder silently produces "plugin symbol has wrong type" fallbacks.
type natEnv = struct {
	// Cnt holds the step count, the step limit (read-only for the plugin)
	// and the bail-out protocol words; see the cnt* indices below.
	Cnt [4]uint64
	// Stats is a zero-copy view of the VM's vm.Stats (natStatsWords words,
	// indexed by the st* offsets below), so generated code commits batched
	// statistics with plain adds into the memory the interpreter bumps.
	Stats *[14]uint64
	// PageID/Pages form a direct-mapped page cache (natPageWays slots,
	// indexed by natSlot of the page id; IDs are page number plus one so the
	// zero value never matches). The dispatch loop's loads and stores and
	// native code's go through the same slots.
	PageID [512]uint64
	Pages  [512]*[65536]byte
	// Sites is a flat view of the VM's per-site profile (vm.SiteCount laid
	// out as three uint64 words per site: Execs, Wide, Cost), so generated
	// code for profiled programs can batch site-counter commits with plain
	// adds at compile-time-constant indices. It is nil (and never referenced
	// by the generated code) for unprofiled programs. Site IDs are validated
	// against the module at VM construction, so generated indices are
	// always in bounds.
	Sites []uint64

	// Poll returns the interrupt flag's raised reason (0 when clear).
	Poll func() uint64
	// PageFor resolves the page backing addr (the fast-path cache fill).
	PageFor func(uint64) (*[65536]byte, error)
	// SlowLoad/SlowStore are the exact slow-path accesses (page-straddling,
	// null-guard and unmapped faults) of the interpreter's memory path.
	SlowLoad  func(uint64, uint64) (uint64, error)
	SlowStore func(uint64, uint64, uint64) error
	// TrieLookup/TrieStore are the SoftBound metadata operations (statistics
	// are batched by the generated code; these do only the table work).
	TrieLookup func(uint64) (uint64, uint64)
	TrieStore  func(uint64, uint64, uint64)
	// SBFail/LFFail construct the exact violation errors of the VM's check
	// operations. LFFail's first argument is 0 for a dereference check, 1 for
	// an invariant (escape) check.
	SBFail func(uint64, uint64, uint64, uint64) error
	LFFail func(uint64, uint64, uint64, uint64) error
	// Rte raises the runtime error belonging to the op at pc (division by
	// zero, deferred compile diagnostics), with the engine backtrace.
	Rte func(uint64) error
	// Gate executes the single op at pc through the host interpreter with
	// exact per-op accounting: calls, allocas, shadow-stack ops, hoisted
	// range checks, dynamic GEPs. The generated code spills the op's operand
	// registers to regs before the call and reloads its results after.
	Gate func(uint64, []uint64) error
}

// natFunc is the signature of one natively compiled function: the canonical
// register file (parameters and constants pre-loaded by the host, every
// other register zero) and the engine's environment. It is entered only at
// the function's first op. It returns the function's return value; a
// bail-out back to the interpreter is signalled through
// Cnt[cntBail]/Cnt[cntBailPC] with a nil error, after spilling the
// registers it wrote that are live at the bail pc.
type natFunc = func([]uint64, *natEnv) (uint64, error)

// Cnt indices: the engine's step count (every tier counts here), its step
// limit, and the bail-out protocol.
const (
	cntSteps = iota
	cntMaxSteps
	cntBail
	cntBailPC
)

// Word offsets of the vm.Stats fields generated code commits, inside the
// natEnv.Stats view.
const (
	stInstrs     = uint64(unsafe.Offsetof(vm.Stats{}.Instrs) / 8)
	stCost       = uint64(unsafe.Offsetof(vm.Stats{}.Cost) / 8)
	stLoads      = uint64(unsafe.Offsetof(vm.Stats{}.Loads) / 8)
	stStores     = uint64(unsafe.Offsetof(vm.Stats{}.Stores) / 8)
	stChecks     = uint64(unsafe.Offsetof(vm.Stats{}.Checks) / 8)
	stWide       = uint64(unsafe.Offsetof(vm.Stats{}.WideChecks) / 8)
	stInv        = uint64(unsafe.Offsetof(vm.Stats{}.InvariantChecks) / 8)
	stMetaLoads  = uint64(unsafe.Offsetof(vm.Stats{}.MetaLoads) / 8)
	stMetaStores = uint64(unsafe.Offsetof(vm.Stats{}.MetaStores) / 8)
)

// natPageWays is the page cache's way count; natBatchMaxSteps caps a
// generated accounting batch below vm.InterruptStride, so the step count
// crosses at most one multiple of the stride (one poll) per batch.
const (
	natPageWays      = 512
	natBatchMaxSteps = 256
)

// natSlot is the page-cache slot of page id pn (page number plus one): its
// low bits with the higher bits folded in. Every Low-Fat region spans 1<<19
// pages, so the low bits alone would put the first page of all 27 size
// regions in one slot and the top of every region's stack mirror in
// another; the fold spreads them, the heap, the globals and the stack over
// distinct slots. natSlotExpr is the same function spelled in generated Go.
func natSlot(pn uint64) uint64 { return (pn ^ pn>>16 ^ pn>>20) & (natPageWays - 1) }

// Word offsets of the vm.SiteCount fields inside the flat natEnv.Sites view
// (natSiteWords words per site).
const (
	natSiteExecs = 0
	natSiteWide  = 1
	natSiteCost  = 2
	natSiteWords = 3
)

// natStatsWords is the length of the natEnv.Stats view.
const natStatsWords = 14

// The views pin the layouts they rely on: vm.Stats is natStatsWords uint64
// words and vm.SiteCount natSiteWords, with no padding. An array length
// goes negative — a compile error — if either struct changes size.
var (
	_ [unsafe.Sizeof(vm.Stats{}) - natStatsWords*8]byte
	_ [natStatsWords*8 - unsafe.Sizeof(vm.Stats{})]byte
	_ [unsafe.Sizeof(vm.SiteCount{}) - natSiteWords*8]byte
	_ [natSiteWords*8 - unsafe.Sizeof(vm.SiteCount{})]byte
)
