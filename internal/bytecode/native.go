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

	"repro/internal/mem"
	"repro/internal/softbound"
	"repro/internal/vm"
)

// The native tier's runtime: building, caching and loading the generated
// plugin (native_gen.go), and the host half of its ABI (native_env.go) — the
// environment closures and the one-op gate interpreter.
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

// natKey is the plugin cache key: the sha256 of the toolchain identity, a
// newline and the generated source. It names the cached .so and the
// plugin's module path. The parts stream through one hash, so the source is
// never copied.
func natKey(toolchain, src string) string {
	h := sha256.New()
	h.Write(natBytes(toolchain))
	h.Write([]byte{'\n'})
	h.Write(natBytes(src))
	return hex.EncodeToString(h.Sum(nil))
}

// natBytes views s as bytes without copying it, for writers that only read
// their argument.
func natBytes(s string) []byte { return unsafe.Slice(unsafe.StringData(s), len(s)) }

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
	if err := os.WriteFile(filepath.Join(work, "plug.go"), natBytes(src), 0o666); err != nil {
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

// bindEnv points the engine's environment at the VM's statistics and site
// profile and installs the host closures the generated code calls for slow
// paths, faults and gated ops. Statistics, steps and the page cache need no
// sync: native code and the dispatch loop share those words.
func (e *Engine) bindEnv() {
	ev := &e.env
	ev.Stats = (*[natStatsWords]uint64)(unsafe.Pointer(e.st))
	if len(e.prof) > 0 {
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
		return vm.SBDerefViolation(ptr, width, base, bound)
	}
	ev.LFFail = func(kind, ptr, width, base uint64) error {
		if kind == 1 {
			return vm.LFInvariantViolation(ptr, base)
		}
		return vm.LFDerefViolation(ptr, width, base)
	}
	ev.Rte = func(pc uint64) error { return e.natRte(int(pc)) }
	ev.Gate = func(pc uint64, regs []uint64) error {
		g0 := e.st.Instrs
		err := e.gateOp(e.natFn, int(pc), regs)
		if e.tierFns != nil {
			e.natGateInstrs += e.st.Instrs - g0
			e.tierFns[e.natFn.idx].gates++
		}
		return err
	}
}

// natRte reconstructs the runtime error the interpreter raises at pc: the
// generated code reports only the pc, the op identifies the message.
func (e *Engine) natRte(pc int) error {
	fn := e.natFn
	o := &fn.ops[pc]
	switch o.code {
	case opErrInstr:
		return e.rte(pc, fn.errs[o.x].msg)
	case opErrRaw:
		ei := &fn.errs[o.x]
		if !ei.trace {
			return &vm.RuntimeError{Msg: ei.msg}
		}
		return e.rte(pc, ei.msg)
	default:
		return e.rte(pc, "integer division by zero")
	}
}

// natCode returns fn's native code, nil when fn runs on the interpreter.
func (e *Engine) natCode(fn *Fn) natFunc {
	if e.nat == nil {
		return nil
	}
	return e.nat.fns[fn.idx]
}

// execNative runs fn's native code from its entry over the canonical
// register file. It returns either the function's result (done=true) or the
// pc to resume interpretation at after a bail-out.
func (e *Engine) execNative(fn *Fn, code natFunc, regs []uint64) (npc int, ret uint64, done bool, err error) {
	ev := &e.env
	savedFn, savedGate := e.natFn, e.natGateInstrs
	e.natFn = fn
	e.natGateInstrs = 0
	i0 := e.st.Instrs
	r, err := code(regs, ev)
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

// gateOp executes the single op at pc with the exact per-op accounting
// preamble, operating on the canonical register file. The generated code
// routes every op the native tier does not inline through here: the
// gate-class ops, which Engine.gate implements for the dispatch loop too.
func (e *Engine) gateOp(fn *Fn, pc int, regs []uint64) error {
	o := &fn.ops[pc]
	s := e.env.Cnt[cntSteps] + 1
	e.env.Cnt[cntSteps] = s
	if s > e.env.Cnt[cntMaxSteps] || s%vm.InterruptStride == 0 {
		if err := e.stepEvent(pc); err != nil {
			return err
		}
	}
	e.st.Instrs++
	e.st.Cost += o.cost
	return e.gate(fn, pc, regs)
}
