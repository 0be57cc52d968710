package bytecode_test

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/vm"
)

// natBailSrc has a hot loop in main and a recursive call inside it, so a
// run spends nearly all its steps in native code of both functions.
const natBailSrc = `
int sum(int *a, int n) {
  if (n == 0) return 0;
  return a[n - 1] + sum(a, n - 1);
}

int main() {
  int a[64];
  int s = 0;
  for (int i = 0; i < 64; i++) a[i] = i * 3;
  for (int r = 0; r < 100; r++) s += sum(a, 64) ^ r;
  printf("%d\n", s);
  return s & 127;
}
`

// tierRow returns the process-wide tier row of the named function.
func tierRow(name string) bytecode.TierFnStats {
	rows, _ := bytecode.TierStats()
	for _, r := range rows {
		if r.Func == name {
			return r
		}
	}
	return bytecode.TierFnStats{Func: name}
}

// TestNativeBailFinishesOnInterpreter stops SoftBound-instrumented,
// site-profiled runs of a program with a loop and a call at step limits
// spread over the run and with a pending interrupt, so native batches bail
// mid-run. On both bytecode engines each stop must match the tree engine
// bit for bit: exit code, verdict (the interrupt at the same step), output,
// vm.Stats and site profile. Native code is entered only
// at function entry (main at most once per run, sum at most once per call),
// and the native bucket never exceeds the instructions retired — a bailed
// invocation finishes on plain dispatch.
func TestNativeBailFinishesOnInterpreter(t *testing.T) {
	m, vopts, _ := prepareSource(t, "natbail", natBailSrc, harness.PaperConfig(core.MechSoftBound))
	vopts.SiteProfile = true

	full := runUnder(t, bytecode.EngineTree, m, vopts)
	if full.err != nil {
		t.Fatalf("reference run: %v", full.err)
	}

	type stop struct {
		name     string
		maxSteps uint64
		intr     bool
	}
	var stops []stop
	for k := uint64(1); k <= 24; k++ {
		stops = append(stops, stop{name: "step limit", maxSteps: full.stats.Instrs * k / 25})
	}
	stops = append(stops, stop{name: "interrupt", intr: true}, stop{name: "complete"})

	var bails, entries uint64
	for _, s := range stops {
		o := vopts
		o.MaxSteps = s.maxSteps
		var calls uint64 // SoftBound shadow frames: one per call to sum or printf
		run := func(kind bytecode.EngineKind) runOutcome {
			if s.intr {
				o.Interrupt = &vm.InterruptFlag{}
				o.Interrupt.Interrupt(vm.IntrCanceled)
			}
			machine, err := vm.New(m, o)
			if err != nil {
				t.Fatalf("vm.New: %v", err)
			}
			code, rerr := bytecode.RunOn(kind, machine)
			calls = machine.Shadow.Pushes
			return runOutcome{code: code, output: machine.Output(), stats: machine.Stats,
				sites: machine.SiteProfile(), err: rerr}
		}
		ref := run(bytecode.EngineTree)
		match := func(kind bytecode.EngineKind, got runOutcome) {
			if s.intr {
				// Interrupt errors carry a backtrace only on the tree.
				var ie, ge *vm.InterruptError
				if !errors.As(ref.err, &ie) {
					t.Fatalf("%s: tree engine did not stop on the interrupt: %v", s.name, ref.err)
				}
				if !errors.As(got.err, &ge) || ge.Reason != ie.Reason || ge.Steps != ie.Steps {
					t.Errorf("%s: %v stopped with %v, tree with %v", s.name, kind, got.err, ref.err)
				}
			} else if describeErr(got.err) != describeErr(ref.err) {
				t.Errorf("%s %d: %v verdict %q, tree %q", s.name, s.maxSteps, kind, describeErr(got.err), describeErr(ref.err))
			}
			if got.code != ref.code || got.output != ref.output {
				t.Errorf("%s %d: %v exit %d output %q, tree exit %d output %q", s.name, s.maxSteps, kind, got.code, got.output, ref.code, ref.output)
			}
			if got.stats != ref.stats {
				t.Errorf("%s %d: stats differ\n%v %+v\ntree %+v", s.name, s.maxSteps, kind, got.stats, ref.stats)
			}
			if !slices.Equal(got.sites, ref.sites) {
				t.Errorf("%s %d: %v site profile differs from the tree's", s.name, s.maxSteps, kind)
			}
		}
		match(bytecode.EngineBytecode, run(bytecode.EngineBytecode))
		main0, sum0 := tierRow("main"), tierRow("sum")
		_, total0 := bytecode.TierStats()
		got := run(bytecode.EngineCompiler)
		main1, sum1 := tierRow("main"), tierRow("sum")
		_, total1 := bytecode.TierStats()
		match(bytecode.EngineCompiler, got)

		if d := main1.NativeEntries - main0.NativeEntries; d > 1 {
			t.Errorf("%s %d: main entered native code %d times in one invocation", s.name, s.maxSteps, d)
		}
		if d := sum1.NativeEntries - sum0.NativeEntries; d > calls {
			t.Errorf("%s %d: sum entered native code %d times in at most %d calls", s.name, s.maxSteps, d, calls)
		}
		bucketed := tierSum(main1) - tierSum(main0) + tierSum(sum1) - tierSum(sum0)
		if total1-total0 != got.stats.Instrs || bucketed > got.stats.Instrs {
			t.Errorf("%s %d: tier total %d (native %d) for %d retired instructions",
				s.name, s.maxSteps, total1-total0, bucketed, got.stats.Instrs)
		}
		bails += main1.NativeBails - main0.NativeBails + sum1.NativeBails - sum0.NativeBails
		entries += main1.NativeEntries - main0.NativeEntries + sum1.NativeEntries - sum0.NativeEntries
	}
	t.Logf("%d stops: %d native entries, %d bails", len(stops), entries, bails)
	if entries == 0 {
		t.Skip("native tier unavailable: the runs above compared the interpreter tiers only")
	}
	if bails == 0 {
		t.Error("no run bailed out of native code; the stops missed every native batch")
	}
}

func tierSum(r bytecode.TierFnStats) uint64 { return r.NativeInstrs }
