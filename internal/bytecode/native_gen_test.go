package bytecode_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/spec"
)

var updateNativeGolden = flag.Bool("update", false, "rewrite testdata/native_src.golden")

// TestNativeSourceGolden pins the native generator's output for every spec
// benchmark under every named configuration: the sha256 and length of the
// plugin source, plain and, for instrumented configurations, site-profiled.
// The source keys the on-disk plugin cache, so a generator change meant to
// be output-neutral must leave testdata/native_src.golden untouched (and
// every cached plugin valid); regenerate it with -update only for an
// intended change of the emitted code.
func TestNativeSourceGolden(t *testing.T) {
	names := harness.ConfigNames()
	var sb strings.Builder
	for _, b := range spec.All() {
		src, err := b.Compile()
		if err != nil {
			t.Fatalf("compile %s: %v", b.Name, err)
		}
		for _, name := range names {
			cfg, err := harness.ConfigByName(name)
			if err != nil {
				t.Fatal(err)
			}
			m, _, _ := instrumentModule(t, b.Name, ir.CloneModule(src), cfg)
			profs := []bool{false}
			if cfg.Instrument {
				profs = append(profs, true)
			}
			for _, prof := range profs {
				gen := bytecode.NatGenerate(bytecode.CompileNative(m, nil, prof))
				fmt.Fprintf(&sb, "%s %s prof=%t %x len=%d\n", b.Name, name, prof, sha256.Sum256([]byte(gen)), len(gen))
			}
		}
	}
	got := sb.String()
	path := filepath.Join("testdata", "native_src.golden")
	if *updateNativeGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%d golden cells, want %d (re-run with -update if intended)", len(gl)-1, len(wl)-1)
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("generated source diverges from %s (re-run with -update if intended):\n got  %s\n want %s", path, gl[i], wl[i])
		}
	}
}

// fig9Programs compiles the Fig. 9 matrix (every spec benchmark under the
// baseline and both paper configurations) for the compiler tier.
func fig9Programs(tb testing.TB) []*bytecode.Program {
	tb.Helper()
	cfgs := []harness.RunConfig{
		harness.BaselineConfig(),
		harness.PaperConfig(core.MechSoftBound),
		harness.PaperConfig(core.MechLowFat),
	}
	var progs []*bytecode.Program
	for _, b := range spec.All() {
		src, err := b.Compile()
		if err != nil {
			tb.Fatalf("compile %s: %v", b.Name, err)
		}
		for _, cfg := range cfgs {
			m, _, _ := instrumentModule(tb, b.Name, ir.CloneModule(src), cfg)
			progs = append(progs, bytecode.CompileNative(m, nil, false))
		}
	}
	return progs
}

// BenchmarkNatGenerate generates the plugin source of all 60 Fig. 9
// programs per iteration: the part of every native bind, cache hits
// included, that runs before the plugin key is known.
func BenchmarkNatGenerate(b *testing.B) {
	progs := fig9Programs(b)
	b.ReportAllocs()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = 0
		for _, p := range progs {
			n += len(bytecode.NatGenerate(p))
		}
	}
	b.ReportMetric(float64(n), "src_bytes")
}

// TestNatGenerateAllocs bounds the generator's allocations: with its pooled
// buffers warm, generating a program's source allocates the returned string
// and at most one more object on average (a regrown scratch slice or a pool
// refill after a collection).
func TestNatGenerateAllocs(t *testing.T) {
	progs := fig9Programs(t)
	allocs := testing.AllocsPerRun(5, func() {
		for _, p := range progs {
			bytecode.NatGenerate(p)
		}
	})
	if perProg := allocs / float64(len(progs)); perProg > 2 {
		t.Errorf("natGenerate allocates %.1f objects per program, want at most 2", perProg)
	}
}

// TestNatGenerateConcurrent generates from several goroutines at once, as
// concurrent binds do through the generator pool, and requires every source
// to match the one generated alone. Run it with -race.
func TestNatGenerateConcurrent(t *testing.T) {
	progs := fig9Programs(t)[:12]
	want := make([]string, len(progs))
	for i, p := range progs {
		want[i] = bytecode.NatGenerate(p)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range progs {
				i := (k + 3*w) % len(progs)
				if got := bytecode.NatGenerate(progs[i]); got != want[i] {
					t.Errorf("worker %d: program %d generated %d bytes differing from the sequential %d", w, i, len(got), len(want[i]))
				}
			}
		}(w)
	}
	wg.Wait()
}
