package bytecode

// The native tier's plugin ABI.
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
// host-side type assertion on the looked-up symbol holds. The first fields
// are per-engine state arrays (counters and a direct-mapped page cache); the
// rest are host closures for everything the generated code cannot do itself:
// interrupt polling, page-table walks, slow-path memory access, metadata trie
// operations, error construction, and a one-op interpreter gate for rare ops
// (calls, allocas, shadow-stack traffic, range checks, dynamic GEPs).
//
// Any change to this struct must be mirrored byte-for-byte in the source the
// generator emits (natEnvDecl in native_gen.go) — the two spellings are
// compared by the compiler's structural identity, so a field rename or
// reorder silently produces "plugin symbol has wrong type" fallbacks.
type natEnv = struct {
	// Cnt is the counter block shared between host and generated code; see
	// the cnt* indices below. The host syncs it with vm.Stats (and the
	// engine's step/countdown state) at native entry/exit and around gate
	// calls, so generated code can batch statistics with plain adds.
	Cnt [16]uint64
	// PageID/Pages form a direct-mapped page cache (natPageWays slots,
	// indexed by a fold of the page number, see natSlotExpr; IDs are page
	// number plus one so the zero value never matches). It is per-engine
	// state owned by the host so concurrent engines on the same plugin
	// never share translations.
	PageID [512]uint64
	Pages  [512]*[65536]byte
	// Sites is a flat view of the VM's per-site profile (vm.SiteCount laid
	// out as three uint64 words per site: Execs, Wide, Cost), so generated
	// code for profiled programs can batch site-counter commits with plain
	// adds at compile-time-constant indices. The host points it at the
	// engine's shared profile slice; it is nil (and never referenced by the
	// generated code) for unprofiled programs. Site IDs are validated
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

// Counter-block indices. cntInstrs..cntMetaStores mirror the identically
// named vm.Stats fields; cntSteps/cntCountdown mirror the engine's step and
// interrupt-poll state; cntMaxSteps is the step limit (read-only for the
// plugin); cntBail/cntBailPC carry the bail-out protocol.
const (
	cntInstrs = iota
	cntCost
	cntLoads
	cntStores
	cntChecks
	cntWide
	cntInv
	cntMetaLoads
	cntMetaStores
	cntSteps
	cntCountdown
	cntMaxSteps
	cntBail
	cntBailPC
)

// natPageWays is the plugin page cache's way count; natBatchMaxSteps caps a
// generated accounting batch so the interrupt countdown (reset stride
// vm.InterruptStride) can cross zero at most once per batch.
const (
	natPageWays      = 512
	natBatchMaxSteps = 256
)

// Word offsets of the vm.SiteCount fields inside the flat natEnv.Sites view
// (natSiteWords words per site).
const (
	natSiteExecs = 0
	natSiteWide  = 1
	natSiteCost  = 2
	natSiteWords = 3
)
