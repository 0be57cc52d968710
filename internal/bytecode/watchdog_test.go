package bytecode_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/spec"
	"repro/internal/vm"
)

// engines under test for the watchdog: the cooperative interrupt must work
// identically on the reference interpreter and the bytecode engine.
var watchdogEngines = []bytecode.EngineKind{bytecode.EngineTree, bytecode.EngineBytecode}

// TestWatchdogInterruptsInfiniteLoop is the tentpole acceptance check: a
// benchmark that never terminates is stopped by a raised interrupt flag on
// both engines, surfacing as a structured InterruptError instead of a hang.
func TestWatchdogInterruptsInfiniteLoop(t *testing.T) {
	for _, kind := range watchdogEngines {
		for _, cfg := range []harness.RunConfig{
			harness.BaselineConfig(),
			harness.PaperConfig(core.MechSoftBound),
			harness.PaperConfig(core.MechLowFat),
		} {
			t.Run(kind.String()+"/"+cfg.Label, func(t *testing.T) {
				m, vopts, _ := prepare(t, spec.InfLoop, cfg)
				flag := &vm.InterruptFlag{}
				vopts.Interrupt = flag
				timer := time.AfterFunc(20*time.Millisecond, func() { flag.Interrupt(vm.IntrDeadline) })
				defer timer.Stop()

				done := make(chan runOutcome, 1)
				go func() { done <- runUnder(t, kind, m, vopts) }()
				var out runOutcome
				select {
				case out = <-done:
				case <-time.After(30 * time.Second):
					t.Fatal("watchdog did not stop the infinite loop")
				}
				var intr *vm.InterruptError
				if !errors.As(out.err, &intr) {
					t.Fatalf("expected InterruptError, got %v", out.err)
				}
				if intr.Reason != vm.IntrDeadline {
					t.Fatalf("reason = %s, want deadline", vm.ReasonString(intr.Reason))
				}
				if intr.Steps == 0 {
					t.Fatal("interrupt fired before the program ran at all")
				}
			})
		}
	}
}

// TestWatchdogInterruptLatencyBounded pins the one poll rule: every engine
// polls when its step count reaches a multiple of vm.InterruptStride, so a
// flag raised before the run starts stops all three engines at exactly the
// first multiple. On the compiler engine the run starts in native code,
// whose batch that crosses the stride polls and bails to the interpreter.
func TestWatchdogInterruptLatencyBounded(t *testing.T) {
	for _, kind := range append(watchdogEngines, bytecode.EngineCompiler) {
		t.Run(kind.String(), func(t *testing.T) {
			m, vopts, _ := prepare(t, spec.InfLoop, harness.BaselineConfig())
			flag := &vm.InterruptFlag{}
			flag.Interrupt(vm.IntrCanceled)
			vopts.Interrupt = flag
			entries := tierRow("main").NativeEntries
			out := runUnder(t, kind, m, vopts)
			var intr *vm.InterruptError
			if !errors.As(out.err, &intr) {
				t.Fatalf("expected InterruptError, got %v", out.err)
			}
			if intr.Reason != vm.IntrCanceled {
				t.Fatalf("reason = %s, want canceled", vm.ReasonString(intr.Reason))
			}
			if intr.Steps != vm.InterruptStride {
				t.Fatalf("pre-raised flag observed after %d steps, want exactly the poll stride %d",
					intr.Steps, vm.InterruptStride)
			}
			if kind == bytecode.EngineCompiler && bytecode.NativeAvailable() && tierRow("main").NativeEntries == entries {
				t.Fatal("the compiler engine never entered native code")
			}
		})
	}
}

// TestWatchdogNeutrality mirrors TestSiteProfileNeutrality for the interrupt
// poll: running with an armed-but-never-raised flag must not change any
// verdict, output or statistic versus running with no flag at all, and must
// not measurably slow either engine — the poll at every multiple of
// vm.InterruptStride is the only cost a campaign without -deadline pays for
// the watchdog.
func TestWatchdogNeutrality(t *testing.T) {
	b := spec.All()[0]
	for _, kind := range watchdogEngines {
		for _, cfg := range []harness.RunConfig{
			harness.BaselineConfig(),
			harness.PaperConfig(core.MechSoftBound),
		} {
			t.Run(kind.String()+"/"+cfg.Label, func(t *testing.T) {
				m, vopts, _ := prepare(t, b, cfg)
				timeOnce := func(withFlag bool) (runOutcome, time.Duration) {
					o := vopts
					if withFlag {
						o.Interrupt = &vm.InterruptFlag{}
					}
					start := time.Now()
					out := runUnder(t, kind, m, o)
					return out, time.Since(start)
				}
				// Interleave the off/on trials and take each side's minimum:
				// concurrent test binaries ramp load mid-test, and
				// back-to-back blocks would bill that ramp to one side only.
				var off, on runOutcome
				var offT, onT time.Duration
				for i := 0; i < 5; i++ {
					var d time.Duration
					off, d = timeOnce(false)
					if offT == 0 || d < offT {
						offT = d
					}
					on, d = timeOnce(true)
					if onT == 0 || d < onT {
						onT = d
					}
				}
				if off.code != on.code {
					t.Errorf("exit code changed: off=%d on=%d", off.code, on.code)
				}
				if off.output != on.output {
					t.Errorf("output changed:\noff: %q\non:  %q", off.output, on.output)
				}
				if oe, ne := describeErr(off.err), describeErr(on.err); oe != ne {
					t.Errorf("verdict changed: off=%s on=%s", oe, ne)
				}
				if off.stats != on.stats {
					t.Errorf("stats changed:\noff: %+v\non:  %+v", off.stats, on.stats)
				}
				ratio := float64(onT) / float64(offT)
				t.Logf("%s/%s: off=%v on=%v (%.3fx)", kind, cfg.Label, offT, onT, ratio)
				// The poll costs ~one predictable branch per instruction;
				// measured overhead sits well under 2%. The hard gate is
				// looser only to absorb shared-runner timing noise.
				if ratio > 1.10 {
					t.Errorf("armed watchdog slowed %s by %.1f%% (>10%%): off=%v on=%v",
						kind, 100*(ratio-1), offT, onT)
				}
			})
		}
	}
}
