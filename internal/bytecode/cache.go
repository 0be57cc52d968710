package bytecode

import (
	"sync"

	"repro/internal/ir"
	"repro/internal/vm"
)

// The compiled-module cache, for callers that run one module instance many
// times (perfbench's traced campaign, the repository's engine benchmarks and
// perf gates). The harness and RunOn do not use it: each of their runs
// compiles a fresh module, so the identity check below could never match.
// Programs are cached under a caller-chosen key. A hit requires the same
// module *instance*, cost model and engine tier: the key alone is a claim,
// the identity check is the proof (a re-instrumented clone under a reused
// key must not resurrect stale bytecode).
//
// Concurrent lookups of the same key are singleflighted: the first caller
// compiles while later callers block on the entry's once and share the
// resulting program.

type cacheEntry struct {
	mod  *ir.Module
	cm   vm.CostModel
	prof bool
	rec  bool
	tier EngineKind

	once sync.Once
	prog *Program
}

var (
	cacheMu sync.Mutex
	cache   = make(map[string]*cacheEntry)
	hits    uint64
	misses  uint64
)

// cacheLimit bounds retained programs; a traced campaign needs well under
// this many (20 benchmarks x a dozen configs).
const cacheLimit = 1024

// CompileCached returns the compiled program for (key, mod, cm, prof, rec,
// tier), compiling and caching on miss. It stays exported for callers that
// rerun one module instance (perfbench's tracer, the root benchmarks). cm
// may be nil for the default model; prof selects the site-profiling opcode
// variants, rec the forensic-recording ones, and tier the execution engine
// the program is compiled for (the compiler tier binds native code; any
// other tier normalizes to plain bytecode).
func CompileCached(key string, mod *ir.Module, cm *vm.CostModel, prof, rec bool, tier EngineKind) *Program {
	if cm == nil {
		cm = vm.DefaultCostModel()
	}
	if tier != EngineCompiler {
		tier = EngineBytecode
	}
	cacheMu.Lock()
	e, ok := cache[key]
	if ok && !(e.mod == mod && e.cm == *cm && e.prof == prof && e.rec == rec && e.tier == tier) {
		// Same key, different inputs: replace the entry (stale clone reuse).
		ok = false
	}
	if !ok {
		misses++
		if len(cache) >= cacheLimit {
			// Arbitrary eviction; the cache is a campaign-scoped working set
			// and overflowing it only costs recompiles.
			for k := range cache {
				delete(cache, k)
				if len(cache) < cacheLimit {
					break
				}
			}
		}
		e = &cacheEntry{mod: mod, cm: *cm, prof: prof, rec: rec, tier: tier}
		cache[key] = e
	} else {
		hits++
	}
	cacheMu.Unlock()

	e.once.Do(func() {
		e.prog = compileTier(mod, cm, prof, rec, tier)
	})
	return e.prog
}

// CacheStats reports cumulative hit/miss counts of CompileCached (tests,
// perfbench's bytecode.cache_hit_ratio). A caller that joined an in-flight
// compile counts as a hit. Harness cells never move it.
func CacheStats() (h, m uint64) {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	return hits, misses
}

// ClearCache empties the compiled-module cache (tests).
func ClearCache() {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	cache = make(map[string]*cacheEntry)
	hits, misses = 0, 0
}
