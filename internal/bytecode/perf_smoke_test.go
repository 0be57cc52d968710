package bytecode_test

import (
	"testing"
	"time"

	"repro/internal/bytecode"
	"repro/internal/spec"
	"repro/internal/vm"
)

// TestEnginePerfSmoke is the CI perf guard: the bytecode engine exists to be
// faster than the tree interpreter, so a run more than 10x slower on the
// smoke benchmark means the dispatch loop regressed (e.g. per-step
// allocation crept back in) and fails the build. The margin is wide enough
// that CI noise cannot trip it — at parity the engine is ~7x *faster*.
func TestEnginePerfSmoke(t *testing.T) {
	b := spec.All()[0]
	timeFor := func(kind bytecode.EngineKind) time.Duration {
		var total time.Duration
		for _, cfg := range diffConfigs() {
			m, vopts, _ := prepare(t, b, cfg)
			machine, err := vm.New(m, vopts)
			if err != nil {
				t.Fatalf("vm.New: %v", err)
			}
			start := time.Now()
			if _, rerr := bytecode.RunOn(kind, machine); rerr != nil {
				t.Fatalf("%v run: %v", kind, rerr)
			}
			total += time.Since(start)
		}
		return total
	}
	tree := timeFor(bytecode.EngineTree)
	bc := timeFor(bytecode.EngineBytecode)
	t.Logf("smoke %s: tree=%v bytecode=%v (%.2fx)", b.Name, tree, bc,
		float64(tree)/float64(bc))
	if bc > 10*tree {
		t.Fatalf("bytecode engine >10x slower than tree on %s: tree=%v bytecode=%v",
			b.Name, tree, bc)
	}
}

// TestSiteProfileNeutrality is the CI telemetry guard: enabling -siteprofile
// must not change any verdict, exit code, output or execution statistic, and
// must not slow the smoke benchmark by more than 2x. Site bumps are a single
// array increment on check opcodes only, so at parity the overhead is a few
// percent; timing both modes back-to-back and taking the best of three keeps
// scheduler noise out of the ratio.
func TestSiteProfileNeutrality(t *testing.T) {
	b := spec.All()[0]
	for _, cfg := range diffConfigs() {
		t.Run(cfg.Label, func(t *testing.T) {
			m, vopts, _ := prepare(t, b, cfg)
			timeRun := func(prof bool) (runOutcome, time.Duration) {
				o := vopts
				o.SiteProfile = prof
				best := time.Duration(0)
				var out runOutcome
				for i := 0; i < 3; i++ {
					start := time.Now()
					out = runUnder(t, bytecode.EngineBytecode, m, o)
					if d := time.Since(start); best == 0 || d < best {
						best = d
					}
				}
				return out, best
			}
			plain, plainT := timeRun(false)
			prof, profT := timeRun(true)
			if plain.code != prof.code {
				t.Errorf("exit code changed: off=%d on=%d", plain.code, prof.code)
			}
			if plain.output != prof.output {
				t.Errorf("output changed:\noff: %q\non:  %q", plain.output, prof.output)
			}
			if pe, oe := describeErr(plain.err), describeErr(prof.err); pe != oe {
				t.Errorf("verdict changed: off=%s on=%s", pe, oe)
			}
			if plain.stats != prof.stats {
				t.Errorf("stats changed:\noff: %+v\non:  %+v", plain.stats, prof.stats)
			}
			t.Logf("%s: off=%v on=%v (%.2fx)", cfg.Label, plainT, profT,
				float64(profT)/float64(plainT))
			if profT > 2*plainT {
				t.Errorf("-siteprofile slowed the smoke bench >2x: off=%v on=%v", plainT, profT)
			}
		})
	}
}

// TestForensicsNeutrality is the forensics analogue of
// TestSiteProfileNeutrality: enabling -forensics (allocation tracking, flight
// recorder, report synthesis machinery) must not change any verdict, exit
// code, output or execution statistic, and must not slow the smoke benchmark
// by more than 2x. The disabled path compiles to the exact same opcodes as
// before the feature existed; the enabled path swaps in recorded twins, so
// this test is what keeps the recorder honest about staying off the hot path.
func TestForensicsNeutrality(t *testing.T) {
	b := spec.All()[0]
	for _, cfg := range diffConfigs() {
		t.Run(cfg.Label, func(t *testing.T) {
			m, vopts, stats := prepare(t, b, cfg)
			timeRun := func(on bool) (runOutcome, time.Duration) {
				o := vopts
				o.Forensics = on
				if on && stats != nil {
					o.Sites = stats.Sites
					o.AllocSites = stats.AllocSites
				}
				best := time.Duration(0)
				var out runOutcome
				for i := 0; i < 3; i++ {
					start := time.Now()
					out = runUnder(t, bytecode.EngineBytecode, m, o)
					if d := time.Since(start); best == 0 || d < best {
						best = d
					}
				}
				return out, best
			}
			plain, plainT := timeRun(false)
			rec, recT := timeRun(true)
			if plain.code != rec.code {
				t.Errorf("exit code changed: off=%d on=%d", plain.code, rec.code)
			}
			if plain.output != rec.output {
				t.Errorf("output changed:\noff: %q\non:  %q", plain.output, rec.output)
			}
			if pe, oe := describeErr(plain.err), describeErr(rec.err); pe != oe {
				t.Errorf("verdict changed: off=%s on=%s", pe, oe)
			}
			if plain.stats != rec.stats {
				t.Errorf("stats changed:\noff: %+v\non:  %+v", plain.stats, rec.stats)
			}
			t.Logf("%s: off=%v on=%v (%.2fx)", cfg.Label, plainT, recT,
				float64(recT)/float64(plainT))
			if recT > 2*plainT {
				t.Errorf("-forensics slowed the smoke bench >2x: off=%v on=%v", plainT, recT)
			}
		})
	}
}
