package bytecode

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"plugin"
	"runtime"
	"sync"
	"time"
	"unsafe"

	"repro/internal/ir"
	"repro/internal/lowfat"
	"repro/internal/mem"
	"repro/internal/softbound"
	"repro/internal/vm"
)

// The native tier's runtime: building, caching and loading the generated
// plugin (native_gen.go), and the host half of its ABI (native_env.go) — the
// environment closures, the statistics sync protocol and the one-op gate
// interpreter.
//
// A Program under the compiler tier is lowered to Go source, compiled with
// `go build -buildmode=plugin` into a content-addressed .so under the user
// temp directory, and loaded with the plugin package. Every step can fail —
// no go toolchain, no cgo, unsupported platform, an op shape the generator
// does not handle — and every failure degrades silently to the bytecode
// interpreter, which is semantically complete. The differential harness
// therefore exercises the same observable behavior whether or not native
// execution is available.

// natProg is a loaded plugin bound to a Program's function list: one entry
// point per function, nil where the function stays on the interpreter.
type natProg struct {
	fns []natFunc
}

// natState is the cached build outcome on a Program (prog nil: build failed,
// don't retry).
type natState struct {
	prog *natProg
}

// natBind is an Engine's native binding: the loaded program plus the
// per-engine environment (counters, page cache, closures).
type natBind struct {
	prog *natProg
	env  *natEnv
}

// NativeTierStats counts native-tier build activity for observability.
type NativeTierStats struct {
	// Builds is the number of plugin compilations actually run.
	Builds uint64
	// CacheHits counts programs served from the in-process or on-disk cache.
	CacheHits uint64
	// Failures counts programs that fell back to the interpreter because
	// generation, compilation or loading failed.
	Failures uint64
	// BuildNS is the cumulative wall time spent in `go build` for plugins.
	BuildNS uint64

	// Fallback reasons, one count per Program that could not bind native
	// code. FallbackBuildError: the plugin compilation failed (or had failed
	// before for the same source). FallbackPluginLoad: the built artifact
	// could not be opened or its symbol had the wrong shape (a corrupt or
	// stale cache entry). FallbackDisabled: MI_NATIVE=0 or an unsupported
	// platform. FallbackPolicy: the program's configuration keeps it on the
	// interpreter by policy (forensics recording).
	FallbackBuildError uint64
	FallbackPluginLoad uint64
	FallbackDisabled   uint64
	FallbackPolicy     uint64
}

var natStatsMu sync.Mutex
var natStats NativeTierStats

// NativeStats returns a snapshot of native-tier build counters.
func NativeStats() NativeTierStats {
	natStatsMu.Lock()
	defer natStatsMu.Unlock()
	return natStats
}

func natCount(f func(*NativeTierStats)) {
	natStatsMu.Lock()
	f(&natStats)
	natStatsMu.Unlock()
}

// NativeBuildEvent is one timestamped native-tier build-pipeline event, kept
// for trace rendering: "build" (a plugin compilation, with its wall
// duration), "promote" (a program bound native code, instantaneous), or
// "fallback:<reason>" (a program degraded to the bytecode interpreter).
type NativeBuildEvent struct {
	Hash   string
	Kind   string
	Start  time.Time
	Dur    time.Duration
	Detail string
}

// natEventCap bounds the in-process build log; campaigns build at most a few
// plugins per distinct program, so the cap only guards pathological churn.
const natEventCap = 256

var natEvents []NativeBuildEvent

// NativeBuildLog returns a copy of the recorded build events, oldest first.
func NativeBuildLog() []NativeBuildEvent {
	natStatsMu.Lock()
	defer natStatsMu.Unlock()
	out := make([]NativeBuildEvent, len(natEvents))
	copy(out, natEvents)
	return out
}

func natEvent(ev NativeBuildEvent) {
	natStatsMu.Lock()
	if len(natEvents) < natEventCap {
		natEvents = append(natEvents, ev)
	}
	natStatsMu.Unlock()
}

// natDisabled gates the tier off: MI_NATIVE=0 in the environment, or a
// platform without plugin support.
var natDisabled = os.Getenv("MI_NATIVE") == "0" ||
	!(runtime.GOOS == "linux" || runtime.GOOS == "darwin" || runtime.GOOS == "freebsd")

// NativeAvailable reports whether the native tier is enabled for this
// process (it can still degrade per program on build or load failures).
func NativeAvailable() bool { return !natDisabled }

// Native fallback reason labels, shared with the telemetry/obs layers.
const (
	NativeFallbackBuildError = "build_error"
	NativeFallbackPluginLoad = "plugin_load"
	NativeFallbackDisabled   = "MI_NATIVE=0"
	NativeFallbackPolicy     = "policy"
)

// native returns the program's loaded native code, building it on first use.
// It returns nil when the native tier is unavailable for this program; the
// result (including failure, with its fallback reason counted exactly once)
// is cached on the Program. Site-profiled programs lower like plain ones —
// the generator bakes their site commits — only forensics recording stays on
// the interpreter by policy.
func (p *Program) native() *natProg {
	if p.tier != EngineCompiler {
		return nil
	}
	if s := p.nat.Load(); s != nil {
		return s.prog
	}
	p.natMu.Lock()
	defer p.natMu.Unlock()
	if s := p.nat.Load(); s != nil {
		return s.prog
	}
	var np *natProg
	switch {
	case natDisabled:
		natCount(func(s *NativeTierStats) { s.FallbackDisabled++ })
		natEvent(NativeBuildEvent{Kind: "fallback:" + NativeFallbackDisabled, Start: time.Now()})
	case p.rec:
		natCount(func(s *NativeTierStats) { s.FallbackPolicy++ })
		natEvent(NativeBuildEvent{Kind: "fallback:" + NativeFallbackPolicy, Start: time.Now()})
	default:
		np = buildNative(p)
	}
	p.nat.Store(&natState{prog: np})
	return np
}

// buildNative generates, compiles and loads the plugin for p.
func buildNative(p *Program) *natProg {
	src := natGenerate(p)
	key := natKey(natToolchain, src)
	fallback := func(reason string, detail string) *natProg {
		natCount(func(s *NativeTierStats) {
			s.Failures++
			if reason == NativeFallbackPluginLoad {
				s.FallbackPluginLoad++
			} else {
				s.FallbackBuildError++
			}
		})
		natEvent(NativeBuildEvent{Hash: key, Kind: "fallback:" + reason, Start: time.Now(), Detail: detail})
		return nil
	}
	soPath, err := natEnsurePlugin(key, src)
	if err != nil {
		return fallback(NativeFallbackBuildError, err.Error())
	}
	pl, err := plugin.Open(soPath)
	if err != nil {
		return fallback(NativeFallbackPluginLoad, err.Error())
	}
	sym, err := pl.Lookup("Fns")
	if err != nil {
		return fallback(NativeFallbackPluginLoad, err.Error())
	}
	fns, ok := sym.(*[]natFunc)
	if !ok || len(*fns) != len(p.fns) {
		return fallback(NativeFallbackPluginLoad, "plugin symbol has the wrong shape")
	}
	natEvent(NativeBuildEvent{Hash: key, Kind: "promote", Start: time.Now()})
	return &natProg{fns: *fns}
}

var natBuildMu sync.Mutex
var natBuilt = map[string]string{} // plugin key -> .so path ("" = failed)

// natToolchain identifies the toolchain this process builds and loads
// plugins with. A plugin only loads into a host built by the same Go release
// for the same platform and race mode, so all of them are part of the key.
var natToolchain = fmt.Sprintf("%s %s/%s race=%t", runtime.Version(), runtime.GOOS, runtime.GOARCH, raceEnabled)

// natKey is the plugin cache key: the sha256 of the toolchain identity and
// the generated source. It names the cached .so and the plugin's module path.
func natKey(toolchain, src string) string {
	sum := sha256.Sum256([]byte(toolchain + "\n" + src))
	return hex.EncodeToString(sum[:])
}

// natPluginPath is where the plugin with the given key is cached.
func natPluginPath(key string) string {
	return filepath.Join(os.TempDir(), "mi-native", key+".so")
}

// natEnsurePlugin returns the path of the compiled plugin for src,
// building it if no cached artifact exists. Builds are serialized; the .so
// is content-addressed by its key, so concurrent processes race only on an
// atomic rename of identical artifacts.
func natEnsurePlugin(key, src string) (string, error) {
	natBuildMu.Lock()
	defer natBuildMu.Unlock()
	if path, ok := natBuilt[key]; ok {
		if path == "" {
			return "", errors.New("bytecode: native build failed previously")
		}
		natCount(func(s *NativeTierStats) { s.CacheHits++ })
		return path, nil
	}
	path, err := natBuildPlugin(key, src)
	if err != nil {
		natBuilt[key] = ""
		return "", err
	}
	natBuilt[key] = path
	return path, nil
}

func natBuildPlugin(key, src string) (string, error) {
	soPath := natPluginPath(key)
	dir := filepath.Dir(soPath)
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return "", err
	}
	if _, err := os.Stat(soPath); err == nil {
		natCount(func(s *NativeTierStats) { s.CacheHits++ })
		return soPath, nil
	}
	// Build with the toolchain natToolchain names; PATH's go only if it is gone.
	goTool := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goTool); err != nil || runtime.GOROOT() == "" {
		if goTool, err = exec.LookPath("go"); err != nil {
			return "", err
		}
	}
	work, err := os.MkdirTemp(dir, "build-")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(work)
	// The module path doubles as the pluginpath; it must be unique per
	// distinct plugin or the runtime refuses to load a second one.
	gomod := fmt.Sprintf("module natplug%s\n\ngo 1.24\n", key[:16])
	if err := os.WriteFile(filepath.Join(work, "go.mod"), []byte(gomod), 0o666); err != nil {
		return "", err
	}
	if err := os.WriteFile(filepath.Join(work, "plug.go"), []byte(src), 0o666); err != nil {
		return "", err
	}
	args := []string{"build", "-buildmode=plugin"}
	if raceEnabled {
		args = append(args, "-race")
	}
	out := filepath.Join(work, "plug.so")
	args = append(args, "-o", out, ".")
	cmd := exec.Command(goTool, args...)
	cmd.Dir = work
	cmd.Env = append(os.Environ(), "CGO_ENABLED=1", "GOFLAGS=", "GOWORK=off", "GO111MODULE=on", "GOPROXY=off", "GOTOOLCHAIN=local")
	start := time.Now()
	msg, err := cmd.CombinedOutput()
	dur := time.Since(start)
	natCount(func(s *NativeTierStats) { s.BuildNS += uint64(dur) })
	if err != nil {
		return "", fmt.Errorf("bytecode: native build: %v: %s", err, msg)
	}
	natEvent(NativeBuildEvent{Hash: key, Kind: "build", Start: start, Dur: dur})
	// Atomic publish: a concurrent process building the same key renames an
	// identical artifact over ours, which is fine.
	if err := os.Rename(out, soPath); err != nil {
		return "", err
	}
	natCount(func(s *NativeTierStats) { s.Builds++ })
	return soPath, nil
}

// newNatEnv builds the per-engine environment: the counter block, the page
// cache, and the host closures the generated code calls for slow paths,
// faults and gated ops.
// natSiteWordsCheck pins the vm.SiteCount layout the flat Sites view relies
// on: three uint64 words per site (Execs, Wide, Cost), no padding. Either
// array length goes negative — a compile error — if the struct changes size.
var (
	_ [unsafe.Sizeof(vm.SiteCount{}) - natSiteWords*8]byte
	_ [natSiteWords*8 - unsafe.Sizeof(vm.SiteCount{})]byte
)

func (e *Engine) newNatEnv() *natEnv {
	ev := &natEnv{}
	if len(e.prof) > 0 {
		// Zero-copy flat view of the shared per-site profile: generated code
		// for profiled programs commits site counters directly into the same
		// memory the interpreter tiers bump, so profiles stay bit-identical
		// no matter which tier retired each check.
		ev.Sites = unsafe.Slice((*uint64)(unsafe.Pointer(&e.prof[0])), len(e.prof)*natSiteWords)
	}
	ev.Poll = func() uint64 { return uint64(e.intr.Raised()) }
	ev.PageFor = func(addr uint64) (*[mem.PageSize]byte, error) { return e.vm.AS.Page(addr) }
	ev.SlowLoad = func(addr, w uint64) (uint64, error) { return e.vm.AS.Load(addr, int(w)) }
	ev.SlowStore = func(addr, w, val uint64) error { return e.vm.AS.Store(addr, int(w), val) }
	ev.TrieLookup = func(a uint64) (uint64, uint64) {
		b, _ := e.vm.Trie.Lookup(a)
		return b.Base, b.Bound
	}
	ev.TrieStore = func(a, base, bound uint64) {
		e.vm.Trie.Store(a, softbound.Bounds{Base: base, Bound: bound})
	}
	ev.SBFail = func(ptr, width, base, bound uint64) error {
		return &vm.ViolationError{Mechanism: "softbound", Kind: "deref", Ptr: ptr,
			Detail: fmt.Sprintf("access of %d bytes outside bounds [%#x, %#x)", width, base, bound)}
	}
	ev.LFFail = func(kind, ptr, width, base uint64) error {
		if kind == 1 {
			return &vm.ViolationError{Mechanism: "lowfat", Kind: "invariant", Ptr: ptr,
				Detail: fmt.Sprintf("escaping pointer is outside its object at base %#x (size %d)", base, lowfat.AllocSize(lowfat.RegionIndex(base)))}
		}
		return &vm.ViolationError{Mechanism: "lowfat", Kind: "deref", Ptr: ptr,
			Detail: fmt.Sprintf("access of %d bytes outside object at base %#x (size %d)", width, base, lowfat.AllocSize(lowfat.RegionIndex(base)))}
	}
	ev.Rte = func(pc uint64) error { return e.natRte(int(pc)) }
	ev.Gate = func(pc uint64, regs []uint64) error {
		e.natFlush(ev)
		g0 := e.st.Instrs
		err := e.gateOp(e.natFn, int(pc), regs)
		if e.tierFns != nil {
			e.natGateInstrs += e.st.Instrs - g0
			e.tierFns[e.natFn.idx].gates++
		}
		e.natLoad(ev)
		return err
	}
	return ev
}

// natLoad checks engine state out into the counter block (entering native
// code); natFlush checks it back in (leaving it). While native code runs,
// the counter block is authoritative for the mirrored fields.
func (e *Engine) natLoad(ev *natEnv) {
	st := e.st
	ev.Cnt[cntInstrs] = st.Instrs
	ev.Cnt[cntCost] = st.Cost
	ev.Cnt[cntLoads] = st.Loads
	ev.Cnt[cntStores] = st.Stores
	ev.Cnt[cntChecks] = st.Checks
	ev.Cnt[cntWide] = st.WideChecks
	ev.Cnt[cntInv] = st.InvariantChecks
	ev.Cnt[cntMetaLoads] = st.MetaLoads
	ev.Cnt[cntMetaStores] = st.MetaStores
	ev.Cnt[cntSteps] = e.steps
	ev.Cnt[cntCountdown] = e.intrCountdown
	ev.Cnt[cntMaxSteps] = e.maxSteps
}

func (e *Engine) natFlush(ev *natEnv) {
	st := e.st
	st.Instrs = ev.Cnt[cntInstrs]
	st.Cost = ev.Cnt[cntCost]
	st.Loads = ev.Cnt[cntLoads]
	st.Stores = ev.Cnt[cntStores]
	st.Checks = ev.Cnt[cntChecks]
	st.WideChecks = ev.Cnt[cntWide]
	st.InvariantChecks = ev.Cnt[cntInv]
	st.MetaLoads = ev.Cnt[cntMetaLoads]
	st.MetaStores = ev.Cnt[cntMetaStores]
	e.steps = ev.Cnt[cntSteps]
	e.intrCountdown = ev.Cnt[cntCountdown]
}

// natRte reconstructs the runtime error the interpreter raises at pc: the
// generated code reports only the pc, the op identifies the message.
func (e *Engine) natRte(pc int) error {
	fn := e.natFn
	o := &fn.ops[pc]
	switch o.code {
	case opErrInstr:
		return e.rte(pc, o.instr, fn.errs[o.x].msg)
	case opErrRaw:
		ei := &fn.errs[o.x]
		if !ei.trace {
			return &vm.RuntimeError{Msg: ei.msg}
		}
		return e.rte(pc, nil, ei.msg)
	default:
		return e.rte(pc, o.instr, "integer division by zero")
	}
}

// natCode returns fn's native code, nil when fn runs on the interpreter.
func (e *Engine) natCode(fn *Fn) natFunc {
	if e.nat == nil {
		return nil
	}
	return e.nat.prog.fns[fn.idx]
}

// execNative runs fn's native code from its entry over the canonical
// register file. It returns either the function's result (done=true) or the
// pc to resume interpretation at after a bail-out.
func (e *Engine) execNative(fn *Fn, code natFunc, regs []uint64) (npc int, ret uint64, done bool, err error) {
	ev := e.nat.env
	savedFn, savedGate := e.natFn, e.natGateInstrs
	e.natFn = fn
	e.natGateInstrs = 0
	i0 := e.st.Instrs
	e.natLoad(ev)
	r, err := code(regs, ev)
	e.natFlush(ev)
	bailed := err == nil && ev.Cnt[cntBail] != 0
	if e.tierFns != nil {
		tc := &e.tierFns[fn.idx]
		// Gate intervals cover the gated op plus everything nested calls
		// retired (those attribute to their own functions); subtracting
		// them leaves only instructions the generated code retired.
		tc.native += e.st.Instrs - i0 - e.natGateInstrs
		tc.entries++
		if bailed {
			tc.bails++
		}
	}
	e.natFn = savedFn
	e.natGateInstrs = savedGate
	if err != nil {
		return 0, 0, false, err
	}
	if bailed {
		ev.Cnt[cntBail] = 0
		return int(ev.Cnt[cntBailPC]), 0, false, nil
	}
	return 0, r, true, nil
}

// gateOp executes the single op at pc through the interpreter with the exact
// per-op accounting preamble, operating on the canonical register file. The
// generated code routes every op the native tier does not inline through
// here: calls, allocas, shadow-stack ops, hoisted range checks, dynamic
// GEPs. Coverage runs never reach native code, so there is no cover mark.
func (e *Engine) gateOp(fn *Fn, pc int, regs []uint64) error {
	o := &fn.ops[pc]
	st, cm := e.st, e.cm
	e.steps++
	if e.steps > e.maxSteps {
		return e.rte(pc, o.instr, "step limit exceeded")
	}
	e.intrCountdown--
	if e.intrCountdown == 0 {
		if err := e.poll(); err != nil {
			return err
		}
	}
	st.Instrs++
	st.Cost += o.cost

	switch o.code {
	case opAlloca:
		count := uint64(1)
		if o.a >= 0 {
			count = regs[o.a]
		}
		size := o.imm * count
		if size == 0 {
			size = 1
		}
		if e.lfStack {
			addr, lowFat, err := e.vm.LF.StackAlloc(size)
			if err != nil {
				return err
			}
			if !lowFat {
				*e.fb = append(*e.fb, addr)
			}
			regs[o.dst] = addr
		} else {
			align := uint64(o.x)
			nsp := (e.vm.StackPointer() - size) &^ (align - 1)
			if nsp < mem.StackLimit {
				return e.rte(pc, o.instr, "stack overflow")
			}
			e.vm.SetStackPointer(nsp)
			regs[o.dst] = nsp
		}

	case opGEPDyn:
		pl := &fn.gepDyns[o.x]
		addr := regs[o.a]
		ty := pl.srcTy
		for i := range pl.idx {
			idx := sext(regs[pl.idx[i].reg], pl.idx[i].sh)
			if i == 0 {
				addr += uint64(idx * int64(ty.Size()))
				continue
			}
			switch ty.Kind {
			case ir.ArrayKind:
				ty = ty.Elem
				addr += uint64(idx * int64(ty.Size()))
			case ir.StructKind:
				addr += uint64(ty.FieldOffset(int(idx)))
				ty = ty.Fields[idx]
			}
		}
		regs[o.dst] = addr

	case opCallInt:
		ic := &fn.intCalls[o.x]
		argv := make([]uint64, len(ic.args))
		for i, r := range ic.args {
			argv[i] = regs[r]
		}
		e.frames[len(e.frames)-1].pc = pc
		ret, err := e.call(ic.fn, argv)
		if err != nil {
			return err
		}
		if o.dst >= 0 {
			regs[o.dst] = ret
		}
	case opCallExt:
		ec := &fn.extCalls[o.x]
		h := e.vm.External(ec.name)
		if h == nil {
			return e.rte(pc, o.instr, "call to unknown external @"+ec.name)
		}
		argv := make([]uint64, len(ec.args))
		for i, r := range ec.args {
			argv[i] = regs[r]
		}
		e.frames[len(e.frames)-1].pc = pc
		ret, err := h(e.vm, ec.instr, argv)
		if err != nil {
			return err
		}
		if o.dst >= 0 {
			regs[o.dst] = ret
		}

	case opSBSSAlloc:
		st.ShadowOps++
		st.Cost += cm.SBShadowOp
		e.vm.Shadow.AllocateFrame(int(regs[o.a]))
	case opSBSSSetArg:
		st.ShadowOps++
		st.Cost += cm.SBShadowOp
		e.vm.Shadow.SetArg(int(regs[o.a]), softbound.Bounds{Base: regs[o.b], Bound: regs[o.c]})
	case opSBSSArgBase:
		st.ShadowOps++
		st.Cost += cm.SBShadowOp
		if o.dst >= 0 {
			regs[o.dst] = e.vm.Shadow.Arg(int(regs[o.a])).Base
		} else {
			_ = e.vm.Shadow.Arg(int(regs[o.a]))
		}
	case opSBSSArgBound:
		st.ShadowOps++
		st.Cost += cm.SBShadowOp
		if o.dst >= 0 {
			regs[o.dst] = e.vm.Shadow.Arg(int(regs[o.a])).Bound
		} else {
			_ = e.vm.Shadow.Arg(int(regs[o.a]))
		}
	case opSBSSSetRet:
		st.ShadowOps++
		st.Cost += cm.SBShadowOp
		e.vm.Shadow.SetRet(softbound.Bounds{Base: regs[o.a], Bound: regs[o.b]})
	case opSBSSRetBase:
		st.ShadowOps++
		st.Cost += cm.SBShadowOp
		if o.dst >= 0 {
			regs[o.dst] = e.vm.Shadow.Ret().Base
		}
	case opSBSSRetBound:
		st.ShadowOps++
		st.Cost += cm.SBShadowOp
		if o.dst >= 0 {
			regs[o.dst] = e.vm.Shadow.Ret().Bound
		}
	case opSBSSPop:
		st.ShadowOps++
		st.Cost += cm.SBShadowOp
		e.vm.Shadow.PopFrame()

	case opSBCheckRange:
		if _, err := vm.SBCheckRangeOp(st, cm, regs[o.a], regs[o.b], regs[o.x], regs[o.c], regs[o.d], regs[o.dst]); err != nil {
			return err
		}
	case opLFCheckRange:
		if _, err := vm.LFCheckRangeOp(st, cm, regs[o.a], regs[o.b], regs[o.x], regs[o.c], regs[o.dst]); err != nil {
			return err
		}

	case opSBCheckRangeProf:
		wide, err := vm.SBCheckRangeOp(st, cm, regs[o.a], regs[o.b], regs[o.x], regs[o.c], regs[o.d], regs[o.dst])
		e.bumpSite(o.imm, wide, cm.SBCheck)
		if err != nil {
			return err
		}
	case opLFCheckRangeProf:
		wide, err := vm.LFCheckRangeOp(st, cm, regs[o.a], regs[o.b], regs[o.x], regs[o.c], regs[o.dst])
		e.bumpSite(o.imm, wide, cm.LFCheck)
		if err != nil {
			return err
		}

	default:
		return &vm.RuntimeError{Msg: fmt.Sprintf("bytecode: native gate on unexpected opcode %d", o.code)}
	}
	return nil
}
