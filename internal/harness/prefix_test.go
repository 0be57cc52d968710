package harness

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/spec"
)

// instrumentHook returns the pipeline hook that instruments under cfg as the
// Runner does, storing the statistics in *is (nil for the baseline).
func instrumentHook(t testing.TB, cfg RunConfig, is **core.Stats) func(*ir.Module) {
	if !cfg.Instrument {
		return nil
	}
	return func(mod *ir.Module) {
		s, err := core.Instrument(mod, cfg.Core)
		if err != nil {
			t.Fatal(err)
		}
		*is = s
	}
}

// unsharedCompile is the pipeline without prefix sharing: the whole of
// opt.RunPipeline on a clone of the frontend module.
func unsharedCompile(t testing.TB, front *ir.Module, cfg RunConfig) (*ir.Module, *core.Stats, opt.PipelineStats) {
	m := ir.CloneModule(front)
	var is *core.Stats
	var ps opt.PipelineStats
	opt.RunPipeline(m, cfg.EP, instrumentHook(t, cfg, &is), opt.PipelineOptions{Level: cfg.OptLevel, Stats: &ps})
	return m, is, ps
}

// instrCounts is a core.Stats without its registries, plus their sizes.
func instrCounts(s *core.Stats) string {
	if s == nil {
		return "<nil>"
	}
	c := *s
	c.Sites, c.AllocSites = nil, nil
	return fmt.Sprintf("%+v sites=%d", c, s.Sites.Len())
}

// TestSharedPrefixIdentity: for every benchmark under every named
// configuration and every extension point, the Runner's shared-prefix
// pipeline yields the same final module text, instrumentation counts and
// pipeline statistics as a fresh unshared opt.RunPipeline, and a
// configuration whose prefix was already computed computes no new one.
func TestSharedPrefixIdentity(t *testing.T) {
	var cfgs []RunConfig
	for _, name := range ConfigNames() {
		cfg, err := ConfigByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, cfg)
	}
	cfgs = append(cfgs, epConfigs(core.MechSoftBound)...)
	cfgs = append(cfgs, epConfigs(core.MechLowFat)...)
	r := NewRunner()
	for _, b := range spec.All() {
		front, err := b.Compile()
		if err != nil {
			t.Fatal(err)
		}
		ends := map[opt.ExtPoint]bool{}
		for _, cfg := range cfgs {
			name := cfg.Label
			res := &Result{}
			end := opt.EPVectorizerStart // the baseline's split point
			if cfg.Instrument {
				end = cfg.EP
			}
			ends[end] = true
			got, err := r.compile(b, cfg, res, nil, 0, nil)
			if err != nil {
				t.Fatalf("%s/%s: %v", b.Name, name, err)
			}
			want, wantIS, wantPS := unsharedCompile(t, front, cfg)
			if ir.FormatModule(got) != ir.FormatModule(want) {
				t.Errorf("%s/%s: shared-prefix module differs from the unshared pipeline's", b.Name, name)
			}
			if g, w := instrCounts(res.InstrStats), instrCounts(wantIS); g != w {
				t.Errorf("%s/%s: instrumentation stats %s, unshared %s", b.Name, name, g, w)
			}
			if res.PipeStats != wantPS {
				t.Errorf("%s/%s: pipeline stats %+v, unshared %+v", b.Name, name, res.PipeStats, wantPS)
			}
			// One prefix per benchmark and split point.
			n := 0
			for k := range r.prefixes {
				if k.bench == b.Name {
					n++
				}
			}
			if n != len(ends) {
				t.Fatalf("%s/%s: %d prefixes computed for %d split points", b.Name, name, n, len(ends))
			}
		}
	}
}

// TestPrefixSharedConcurrently: configurations of one benchmark compiled
// from several goroutines at once share a single prefix and each still gets
// its own, correct module (run under -race in CI).
func TestPrefixSharedConcurrently(t *testing.T) {
	b := smallBench(t)
	front, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []RunConfig{BaselineConfig(), PaperConfig(core.MechSoftBound), PaperConfig(core.MechLowFat), HoistConfig(core.MechLowFat)}
	want := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		m, _, _ := unsharedCompile(t, front, cfg)
		want[i] = ir.FormatModule(m)
	}
	r := NewRunner()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		i := g % len(cfgs)
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := r.compile(b, cfgs[i], &Result{}, nil, 0, nil)
			if err != nil {
				t.Error(err)
				return
			}
			if ir.FormatModule(m) != want[i] {
				t.Errorf("%s: concurrently compiled module differs from the unshared pipeline's", cfgs[i].Label)
			}
		}()
	}
	wg.Wait()
	if n := len(r.prefixes); n != 1 {
		t.Errorf("%d prefixes computed, want 1", n)
	}
}

// TestPrefixFailureNotMemoized: a prefix computation that panics or fails
// leaves the entry empty, so the next attempt recomputes it.
func TestPrefixFailureNotMemoized(t *testing.T) {
	var e prefixEntry
	func() {
		defer func() { _ = recover() }()
		e.get(func() (*ir.Module, error) { panic("boom") })
	}()
	if _, _, err := e.get(func() (*ir.Module, error) { return nil, errors.New("fail") }); err == nil {
		t.Fatal("a failed computation reported no error")
	}
	m := ir.NewModule("m")
	for i, wantShared := range []bool{false, true} {
		got, shared, err := e.get(func() (*ir.Module, error) { return m, nil })
		if err != nil || shared != wantShared {
			t.Fatalf("get %d: shared=%t err=%v, want shared=%t", i+1, shared, err, wantShared)
		}
		if got == m {
			t.Fatalf("get %d returned the memoized module, not a clone", i+1)
		}
	}
}

// BenchmarkFig9Pipeline times the optimization pipelines of one Fig. 9
// pass: every benchmark under baseline, SoftBound and Low-Fat, with the
// instrumentation hook, starting from compiled frontend modules. "shared"
// runs each benchmark's prefix once and every cell's suffix on a clone of
// it, as Runner does; "unshared" runs the whole pipeline per cell. Run with
// -benchmem.
func BenchmarkFig9Pipeline(b *testing.B) {
	cfgs := []RunConfig{BaselineConfig(), PaperConfig(core.MechSoftBound), PaperConfig(core.MechLowFat)}
	var fronts []*ir.Module
	for _, bm := range spec.All() {
		m, err := bm.Compile()
		if err != nil {
			b.Fatal(err)
		}
		fronts = append(fronts, m)
	}
	b.Run("shared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, front := range fronts {
				m := ir.CloneModule(front)
				opt.RunPrefix(m, opt.EPVectorizerStart, opt.PipelineOptions{Level: 3})
				for _, cfg := range cfgs {
					var is *core.Stats
					hook := instrumentHook(b, cfg, &is)
					opt.RunSuffix(ir.CloneModule(m), opt.PrefixEnd(cfg.EP, hook), hook, opt.PipelineOptions{Level: cfg.OptLevel})
				}
			}
		}
	})
	b.Run("unshared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, front := range fronts {
				for _, cfg := range cfgs {
					unsharedCompile(b, front, cfg)
				}
			}
		}
	})
}
