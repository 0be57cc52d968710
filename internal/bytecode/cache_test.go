package bytecode_test

import (
	"sync"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/cc"
)

const cacheTestSrc = `
int main(void) {
  int acc = 0;
  for (int i = 0; i < 100; i++) acc += i;
  return acc % 251;
}
`

// TestCacheSingleflight: concurrent CompileCached calls under one key
// compile the module exactly once and all receive the same program.
func TestCacheSingleflight(t *testing.T) {
	bytecode.ClearCache()
	m, err := cc.Compile("cachetest", cc.Source{Name: "cachetest.c", Code: cacheTestSrc})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}

	const workers = 32
	progs := make([]*bytecode.Program, workers)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(workers)
	for i := 0; i < workers; i++ {
		go func(i int) {
			defer done.Done()
			start.Wait()
			progs[i] = bytecode.CompileCached("singleflight", m, nil, false, false, bytecode.EngineBytecode)
		}(i)
	}
	start.Done()
	done.Wait()

	for i := 1; i < workers; i++ {
		if progs[i] != progs[0] {
			t.Fatalf("worker %d got a different program instance", i)
		}
	}
	if h, miss := bytecode.CacheStats(); miss != 1 || h != workers-1 {
		t.Fatalf("hits=%d misses=%d, want hits=%d misses=1", h, miss, workers-1)
	}
}

// TestCacheDistinguishesTier: a key hit only counts when engine tier,
// profiling and forensics state all match — a compiler-tier (native-binding)
// program must never be served to a run that asked for plain bytecode, and
// vice versa, even under a reused key.
func TestCacheDistinguishesTier(t *testing.T) {
	bytecode.ClearCache()
	m, err := cc.Compile("cachetest", cc.Source{Name: "cachetest.c", Code: cacheTestSrc})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}

	const key = "shared-key"
	plain := bytecode.CompileCached(key, m, nil, false, false, bytecode.EngineBytecode)
	if got := plain.Tier(); got != bytecode.EngineBytecode {
		t.Fatalf("plain program tier = %v", got)
	}

	comp := bytecode.CompileCached(key, m, nil, false, false, bytecode.EngineCompiler)
	if comp == plain {
		t.Fatalf("compiler-tier request was served the bytecode-tier program")
	}
	if got := comp.Tier(); got != bytecode.EngineCompiler {
		t.Fatalf("compiler program tier = %v", got)
	}

	// Asking for plain bytecode again must not resurrect the compiler-tier
	// entry now occupying the key.
	plain2 := bytecode.CompileCached(key, m, nil, false, false, bytecode.EngineBytecode)
	if plain2 == comp {
		t.Fatalf("bytecode-tier request was served the compiler-tier program")
	}
	if got := plain2.Tier(); got != bytecode.EngineBytecode {
		t.Fatalf("recompiled plain program tier = %v", got)
	}

	// The profiling and forensics axes separate the same way.
	prof := bytecode.CompileCached(key, m, nil, true, false, bytecode.EngineBytecode)
	if prof == plain || prof == plain2 || prof == comp {
		t.Fatalf("profiling request was served a non-profiling program")
	}
	rec := bytecode.CompileCached(key, m, nil, false, true, bytecode.EngineBytecode)
	if rec == prof || rec == plain2 {
		t.Fatalf("forensics request was served a non-forensics program")
	}

	// A matching repeat under the same key is a hit and returns the cached
	// instance unchanged.
	rec2 := bytecode.CompileCached(key, m, nil, false, true, bytecode.EngineBytecode)
	if rec2 != rec {
		t.Fatalf("matching repeat recompiled instead of hitting the cache")
	}
}
