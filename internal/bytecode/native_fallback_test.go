package bytecode

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cc"
	"repro/internal/vm"
)

// Native-tier fallback paths: every way the tier can be unavailable must
// degrade silently to the bytecode interpreter — same exit code, same output —
// while counting the matching fallback reason exactly once per program.
// These tests poke the package internals (the disabled flag, the in-process
// build cache, the content-addressed artifact) to force each path
// deterministically.

// natFallbackProgram compiles one structurally distinct C program per
// scenario (the plugin cache is keyed by code shape, so scenarios must not
// share a hash) into a compiler-tier Program plus a VM to run it on.
func natFallbackProgram(t *testing.T, name, code string) (*Program, *vm.VM) {
	t.Helper()
	m, err := cc.Compile(name, cc.Source{Name: name + ".c", Code: code})
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	machine, err := vm.New(m, vm.Options{})
	if err != nil {
		t.Fatalf("vm.New: %v", err)
	}
	return compileTier(m, machine.CostModel(), false, false, EngineCompiler), machine
}

// runExpectingFallback runs prog on machine and asserts the engine executed
// without native code and produced the expected exit code.
func runExpectingFallback(t *testing.T, prog *Program, machine *vm.VM, wantCode int32) {
	t.Helper()
	eng, err := NewEngine(prog, machine)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if eng.nat != nil {
		t.Fatal("engine bound native code, expected a fallback")
	}
	code, rerr := eng.Run()
	if rerr != nil {
		t.Fatalf("run under fallback failed: %v", rerr)
	}
	if code != wantCode {
		t.Fatalf("exit code %d, want %d", code, wantCode)
	}
}

func TestNativeFallbackDisabled(t *testing.T) {
	prog, machine := natFallbackProgram(t, "natfbdis", `
int main(void) {
  int s = 0;
  for (int i = 0; i < 100; i++) s += i;
  return s & 127;
}
`)
	saved := natDisabled
	natDisabled = true
	defer func() { natDisabled = saved }()
	before := NativeStats()
	runExpectingFallback(t, prog, machine, 4950&127)
	after := NativeStats()
	if d := after.FallbackDisabled - before.FallbackDisabled; d != 1 {
		t.Errorf("FallbackDisabled delta = %d, want 1", d)
	}
	// The cached outcome must not recount on re-binding.
	if prog.native() != nil {
		t.Error("cached native() result should stay nil")
	}
	if d := NativeStats().FallbackDisabled - before.FallbackDisabled; d != 1 {
		t.Errorf("FallbackDisabled recounted on cached lookup: delta %d", d)
	}
}

func TestNativeFallbackBuildError(t *testing.T) {
	if !NativeAvailable() {
		t.Skip("native tier disabled on this platform")
	}
	prog, machine := natFallbackProgram(t, "natfberr", `
int main(void) {
  int s = 1;
  for (int i = 0; i < 50; i++) { s += i; s ^= 3; }
  return s & 127;
}
`)
	src := natGenerate(prog)
	key := natKey(natToolchain, src)
	natBuildMu.Lock()
	natBuilt[key] = "" // poison: "this source failed to build before"
	natBuildMu.Unlock()
	defer func() {
		natBuildMu.Lock()
		delete(natBuilt, key)
		natBuildMu.Unlock()
	}()
	before := NativeStats()
	wantCode := int32(func() int {
		s := 1
		for i := 0; i < 50; i++ {
			s += i
			s ^= 3
		}
		return s & 127
	}())
	runExpectingFallback(t, prog, machine, wantCode)
	after := NativeStats()
	if d := after.FallbackBuildError - before.FallbackBuildError; d != 1 {
		t.Errorf("FallbackBuildError delta = %d, want 1", d)
	}
	if d := after.Failures - before.Failures; d != 1 {
		t.Errorf("Failures delta = %d, want 1", d)
	}
}

func TestNativeFallbackCorruptPlugin(t *testing.T) {
	if !NativeAvailable() {
		t.Skip("native tier disabled on this platform")
	}
	prog, machine := natFallbackProgram(t, "natfbcorrupt", `
int main(void) {
  int s = 2;
  for (int i = 0; i < 60; i++) { s += i * 2; }
  for (int i = 0; i < 10; i++) { s -= i; }
  return s & 127;
}
`)
	src := natGenerate(prog)
	key := natKey(natToolchain, src)
	soPath := natPluginPath(key)
	if err := os.MkdirAll(filepath.Dir(soPath), 0o777); err != nil {
		t.Fatal(err)
	}
	// A corrupt cached artifact: the on-disk stat succeeds (counted as a
	// cache hit), the plugin load fails.
	if err := os.WriteFile(soPath, []byte("not an ELF shared object"), 0o666); err != nil {
		t.Fatal(err)
	}
	defer os.Remove(soPath)
	natBuildMu.Lock()
	delete(natBuilt, key)
	natBuildMu.Unlock()
	defer func() {
		natBuildMu.Lock()
		delete(natBuilt, key)
		natBuildMu.Unlock()
	}()
	before := NativeStats()
	wantCode := int32(func() int {
		s := 2
		for i := 0; i < 60; i++ {
			s += i * 2
		}
		for i := 0; i < 10; i++ {
			s -= i
		}
		return s & 127
	}())
	runExpectingFallback(t, prog, machine, wantCode)
	after := NativeStats()
	if d := after.FallbackPluginLoad - before.FallbackPluginLoad; d != 1 {
		t.Errorf("FallbackPluginLoad delta = %d, want 1", d)
	}
	if d := after.CacheHits - before.CacheHits; d != 1 {
		t.Errorf("CacheHits delta = %d, want 1 (corrupt artifact must be found via the cache)", d)
	}
}

func TestNativeFallbackPolicy(t *testing.T) {
	m, err := cc.Compile("natfbpol", cc.Source{Name: "natfbpol.c", Code: `
int main(void) { return 7; }
`})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	prog := compileTier(m, vm.DefaultCostModel(), false, true, EngineCompiler)
	before := NativeStats()
	if prog.native() != nil {
		t.Fatal("forensics program must not lower natively")
	}
	if d := NativeStats().FallbackPolicy - before.FallbackPolicy; d != 1 {
		t.Errorf("FallbackPolicy delta = %d, want 1", d)
	}
}

// TestNativeKey pins what makes two plugins the same: the toolchain identity
// (release, platform, race mode) and every byte of the generated source.
func TestNativeKey(t *testing.T) {
	const tc, src = "go1.24.0 linux/amd64 race=false", "package main\n\nfunc main() {}\n"
	for _, c := range []struct{ name, tc, src string }{
		{"go release", "go1.25.0 linux/amd64 race=false", src},
		{"platform", "go1.24.0 darwin/arm64 race=false", src},
		{"race", "go1.24.0 linux/amd64 race=true", src},
		{"one source byte", tc, src + " "},
	} {
		a, b := natKey(tc, src), natKey(c.tc, c.src)
		if a == b || natPluginPath(a) == natPluginPath(b) || a[:16] == b[:16] {
			t.Errorf("%s: same key %s, want distinct keys, paths and module paths", c.name, a)
		}
	}
	if natKey(tc, src) != natKey(tc, src) {
		t.Error("identical inputs gave different keys")
	}
}
