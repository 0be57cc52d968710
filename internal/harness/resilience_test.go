package harness

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/resilience"
	"repro/internal/spec"
)

// smallBench is the cheapest spec benchmark for supervision tests.
func smallBench(t *testing.T) *spec.Benchmark {
	t.Helper()
	b := spec.ByName("470lbm")
	if b == nil {
		t.Fatal("470lbm missing from the benchmark list")
	}
	return b
}

// TestConcurrentSameKeySingleCompute hammers one cell from many goroutines:
// exactly one computes, the rest wait for it, and everyone observes the same
// result (run under -race in CI). The journal proves the single compute: one
// entry, not eight.
func TestConcurrentSameKeySingleCompute(t *testing.T) {
	r := NewRunner()
	b := smallBench(t)
	j, err := resilience.OpenJournal(filepath.Join(t.TempDir(), "j.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	r.SetJournal(j)
	cfg := PaperConfig(core.MechSoftBound)

	const workers = 8
	results := make([]*Result, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := r.Run(b, cfg)
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
				return
			}
			results[i] = res
		}()
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if results[i] != results[0] {
			t.Fatalf("worker %d got a different result instance: duplicate compute", i)
		}
	}
	if n := j.Entries(); n != 1 {
		t.Fatalf("journal has %d entries for one cell, want 1 (duplicate compute)", n)
	}
	if results[0].Status != resilience.StatusOK {
		t.Fatalf("status = %s, want ok", results[0].Status)
	}
}

// TestDeadlineTimesOutInfiniteLoop drives the watchdog through the full
// harness stack: a cell that never terminates is interrupted within the
// configured deadline and classified as timeout — not retried (the VM is
// deterministic), not a hang.
func TestDeadlineTimesOutInfiniteLoop(t *testing.T) {
	for _, engine := range []bytecode.EngineKind{bytecode.EngineTree, bytecode.EngineBytecode} {
		t.Run(engine.String(), func(t *testing.T) {
			r := NewRunner()
			r.SetAxes(RunAxes{Engine: engine})
			r.SetResilience(resilience.Policy{Deadline: 30 * time.Millisecond, MaxAttempts: 3})
			done := make(chan *Result, 1)
			go func() {
				res, err := r.Run(spec.InfLoop, BaselineConfig())
				if err != nil {
					t.Errorf("Run: %v", err)
				}
				done <- res
			}()
			var res *Result
			select {
			case res = <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("deadline did not stop the infinite loop")
			}
			if res == nil {
				t.Fatal("no result")
			}
			if res.Status != resilience.StatusTimeout {
				t.Fatalf("status = %s, want timeout (err %v)", res.Status, res.Err)
			}
			if len(res.Attempts) != 1 {
				t.Fatalf("timeout was retried %d times; timeouts are deterministic", len(res.Attempts)-1)
			}
			if res.Err == nil || !strings.Contains(res.Err.Error(), "interrupted") {
				t.Fatalf("timeout error not structured: %v", res.Err)
			}
		})
	}
}

// TestChaosKillRetriesToTrueResult: a chaos-killed first attempt must retry
// and converge to exactly the statistics an undisturbed runner produces —
// the zero-lost-results invariant.
func TestChaosKillRetriesToTrueResult(t *testing.T) {
	b := smallBench(t)
	cfg := PaperConfig(core.MechLowFat)

	clean := NewRunner()
	want, err := clean.Run(b, cfg)
	if err != nil {
		t.Fatal(err)
	}

	r := NewRunner()
	r.SetResilience(resilience.Policy{MaxAttempts: 3, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond})
	r.SetChaos(faultinject.ChaosPlan{Seed: 1, KillProb: 1, MaxKillAfter: time.Millisecond})
	got, err := r.Run(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != resilience.StatusRetried {
		t.Fatalf("status = %s, want retried (err %v)", got.Status, got.Err)
	}
	if len(got.Attempts) < 2 || got.Attempts[0].Status != "panic" {
		t.Fatalf("attempt history %+v does not record the chaos kill", got.Attempts)
	}
	if got.Err != nil {
		t.Fatalf("retried cell still failed: %v", got.Err)
	}
	if got.Stats != want.Stats {
		t.Fatalf("retried stats diverge from the undisturbed run:\nchaos: %+v\nclean: %+v", got.Stats, want.Stats)
	}
	if got.Output != want.Output {
		t.Fatal("retried output diverges from the undisturbed run")
	}
}

// TestRetriesExhaustedReportsPanic: with every attempt chaos-killed (kill on
// all attempts is not possible through Decide, so inject via an immediate
// one-attempt policy), the cell must surface as panic, not vanish.
func TestChaosKillWithoutRetriesReportsPanic(t *testing.T) {
	r := NewRunner()
	r.SetResilience(resilience.Policy{MaxAttempts: 1})
	r.SetChaos(faultinject.ChaosPlan{Seed: 1, KillProb: 1, MaxKillAfter: time.Millisecond})
	res, err := r.Run(smallBench(t), PaperConfig(core.MechSoftBound))
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != resilience.StatusPanic {
		t.Fatalf("status = %s, want panic", res.Status)
	}
	if res.Err == nil {
		t.Fatal("panicked cell has no error")
	}
	counts, bad := r.CellStatuses()
	if counts["panic"] != 1 || len(bad) != 1 {
		t.Fatalf("status summary missed the failure: counts=%v bad=%v", counts, bad)
	}
}

// TestJournalResumeByteIdenticalReport is the unit-level resume acceptance
// check: journal a campaign, resume it in a fresh runner, and require the
// canonical perf reports to match byte for byte.
func TestJournalResumeByteIdenticalReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	b := smallBench(t)
	cfgs := []RunConfig{BaselineConfig(), PaperConfig(core.MechSoftBound), PaperConfig(core.MechLowFat)}

	first := NewRunner()
	j, err := resilience.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	first.SetJournal(j)
	for _, cfg := range cfgs {
		if _, _, err := first.Overhead(b, cfg); err != nil && cfg.Instrument {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	wantRep, err := json.Marshal(first.PerfReport().Canonical())
	if err != nil {
		t.Fatal(err)
	}

	second := NewRunner()
	st, err := second.Resume(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Corrupt != 0 || st.Unparsed != 0 {
		t.Fatalf("clean journal loaded with damage: %+v", st)
	}
	if second.ResumedCells() == 0 {
		t.Fatal("nothing armed for replay")
	}
	for _, cfg := range cfgs {
		res, err := second.Run(b, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Resumed {
			t.Fatalf("%s recomputed instead of replaying", cfg.Label)
		}
	}
	gotRep, err := json.Marshal(second.PerfReport().Canonical())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantRep, gotRep) {
		t.Fatalf("resumed report differs:\nwant: %s\ngot:  %s", wantRep, gotRep)
	}
	// Resumed results must still drive the figures: Overhead needs the
	// stored output and stats.
	if ov, _, err := second.Overhead(b, cfgs[1]); err != nil || ov <= 0 {
		t.Fatalf("Overhead on resumed cells: %v (ov=%f)", err, ov)
	}
}

// TestCorruptJournalEntryRecomputes: a journal entry mangled on disk (chaos
// corruption) must fail the content hash at load and recompute, converging
// to the same result as an intact resume.
func TestCorruptJournalEntryRecomputes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	b := smallBench(t)
	cfg := PaperConfig(core.MechSoftBound)

	first := NewRunner()
	j, err := resilience.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt every entry the way chaos mode does.
	plan := faultinject.ChaosPlan{Seed: 9, CorruptProb: 1}
	first.SetJournal(j)
	first.SetChaos(plan)
	want, err := first.Run(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	second := NewRunner()
	st, err := second.Resume(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Corrupt == 0 {
		t.Fatal("corruption not detected at load")
	}
	if second.ResumedCells() != 0 {
		t.Fatal("corrupted cell armed for replay")
	}
	got, err := second.Run(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Resumed {
		t.Fatal("corrupted cell replayed instead of recomputed")
	}
	if got.Stats != want.Stats {
		t.Fatalf("recomputed stats diverge: %+v vs %+v", got.Stats, want.Stats)
	}
}

// TestCancelShedsCells: after Cancel, not-yet-admitted cells surface as
// skipped — never silently dropped — and the status summary flags them.
func TestCancelShedsCells(t *testing.T) {
	r := NewRunner()
	r.Supervisor().Cancel()
	res, err := r.Run(smallBench(t), BaselineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != resilience.StatusSkipped {
		t.Fatalf("status = %s, want skipped", res.Status)
	}
	if res.Err == nil || !strings.Contains(res.Err.Error(), "skipped") {
		t.Fatalf("skipped cell error: %v", res.Err)
	}
	counts, bad := r.CellStatuses()
	if counts["skipped"] != 1 || len(bad) != 1 {
		t.Fatalf("skipped cell not accounted: counts=%v bad=%v", counts, bad)
	}
}

// TestMemoryBudgetShedsCellAsLastResort wires a tiny budget through the
// runner: the forced-GC re-check cannot free the test process below 1KB, so
// the cell must be shed as skipped rather than run or hang.
func TestMemoryBudgetShedsCellAsLastResort(t *testing.T) {
	r := NewRunner()
	r.SetResilience(resilience.Policy{MemBudget: 1 << 10})
	res, err := r.Run(smallBench(t), BaselineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != resilience.StatusSkipped {
		t.Fatalf("status = %s, want skipped", res.Status)
	}
	if sheds := r.Supervisor().Sheds(); sheds != 1 {
		t.Fatalf("Sheds() = %d, want 1", sheds)
	}
}
