package resilience

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/vm"
)

func TestStatusStringRoundTrip(t *testing.T) {
	for _, s := range []CellStatus{StatusOK, StatusRetried, StatusTimeout,
		StatusOOM, StatusPanic, StatusFailed, StatusSkipped} {
		if got := ParseStatus(s.String()); got != s {
			t.Errorf("ParseStatus(%q) = %v, want %v", s.String(), got, s)
		}
	}
	if got := ParseStatus("totally-bogus"); got != StatusFailed {
		t.Errorf("unknown status parsed as %v, want failed", got)
	}
	if got := ParseStatus(""); got != StatusFailed {
		t.Errorf("empty status parsed as %v, want failed", got)
	}
}

func TestStatusPredicates(t *testing.T) {
	cases := []struct {
		s                         CellStatus
		completed, bad, transient bool
	}{
		{StatusOK, true, false, false},
		{StatusRetried, true, false, false},
		{StatusTimeout, true, true, false},
		{StatusOOM, false, true, true},
		{StatusPanic, false, true, true},
		{StatusFailed, true, true, false},
		{StatusSkipped, false, true, false},
	}
	for _, c := range cases {
		if got := c.s.Completed(); got != c.completed {
			t.Errorf("%v.Completed() = %v, want %v", c.s, got, c.completed)
		}
		if got := c.s.Bad(); got != c.bad {
			t.Errorf("%v.Bad() = %v, want %v", c.s, got, c.bad)
		}
		if got := c.s.Transient(); got != c.transient {
			t.Errorf("%v.Transient() = %v, want %v", c.s, got, c.transient)
		}
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want CellStatus
	}{
		{"nil", nil, StatusOK},
		{"deadline", &vm.InterruptError{Reason: vm.IntrDeadline}, StatusTimeout},
		{"canceled", &vm.InterruptError{Reason: vm.IntrCanceled}, StatusSkipped},
		{"chaos", &vm.InterruptError{Reason: vm.IntrChaos}, StatusPanic},
		{"oom", &mem.BudgetError{}, StatusOOM},
		{"steps", &vm.RuntimeError{Msg: "step limit exceeded (1000)"}, StatusTimeout},
		{"runtime", &vm.RuntimeError{Msg: "division by zero"}, StatusFailed},
		{"wrapped-deadline", fmt.Errorf("cell: %w", &vm.InterruptError{Reason: vm.IntrDeadline}), StatusTimeout},
		{"generic", errors.New("exit code 3"), StatusFailed},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("%s: Classify = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestInterruptFlagFirstWriterWins(t *testing.T) {
	flag := &vm.InterruptFlag{}
	if r := flag.Raised(); r != vm.IntrNone {
		t.Fatalf("fresh flag raised: %v", r)
	}
	flag.Interrupt(vm.IntrDeadline)
	flag.Interrupt(vm.IntrCanceled)
	if r := flag.Raised(); r != vm.IntrDeadline {
		t.Fatalf("second Interrupt overwrote the first: %v", r)
	}
	var nilFlag *vm.InterruptFlag
	if r := nilFlag.Raised(); r != vm.IntrNone {
		t.Fatalf("nil flag raised: %v", r)
	}
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	pol := Policy{BackoffBase: 100 * time.Millisecond, BackoffMax: time.Second, Seed: 7}
	a, b := NewSupervisor(pol, 0), NewSupervisor(pol, 0)
	for i := 0; i < 8; i++ {
		da, db := a.Backoff(i), b.Backoff(i)
		if da != db {
			t.Errorf("attempt %d: same seed diverged: %v vs %v", i, da, db)
		}
		full := pol.BackoffBase << uint(i)
		if full > pol.BackoffMax {
			full = pol.BackoffMax
		}
		if da > full {
			t.Errorf("attempt %d: backoff %v exceeds cap %v", i, da, full)
		}
		if da < full/2 {
			t.Errorf("attempt %d: backoff %v below half of %v (jitter window is 50%%)", i, da, full)
		}
	}
}

func TestSupervisorAdmissionWidth(t *testing.T) {
	s := NewSupervisor(Policy{}, 2)
	var inflight, peak atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := s.Begin("cell", 0)
			defer c.End()
			if c.Shed {
				t.Error("cell shed with no budget and no cancel")
				return
			}
			n := inflight.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(5 * time.Millisecond)
			inflight.Add(-1)
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > 2 {
		t.Errorf("admission let %d cells run concurrently, width is 2", p)
	}
}

func TestSupervisorMemoryGateShedsParallelismFirst(t *testing.T) {
	s := NewSupervisor(Policy{MemBudget: 1000}, 4)
	used := atomic.Uint64{}
	used.Store(850) // above the 80% degradation threshold, below the budget
	s.heapUsed = used.Load

	var inflight, peak atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := s.Begin("cell", 0)
			defer c.End()
			if c.Shed {
				t.Errorf("cell shed under pressure below the hard budget: %s", c.ShedCause)
				return
			}
			n := inflight.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			inflight.Add(-1)
		}()
	}
	wg.Wait()
	if p := peak.Load(); p != 1 {
		t.Errorf("pressure above 80%% of budget should narrow admission to 1, saw peak %d", p)
	}
	if s.Sheds() != 0 {
		t.Errorf("no cell should be shed below the hard budget, got %d", s.Sheds())
	}
}

func TestSupervisorMemoryGateShedsCellAsLastResort(t *testing.T) {
	s := NewSupervisor(Policy{MemBudget: 1000}, 4)
	// Over the full budget and the stub ignores the forced GC, so even a
	// solo cell cannot fit: the gate must shed rather than hang.
	s.heapUsed = func() uint64 { return 2000 }
	c := s.Begin("cell", 0)
	defer c.End()
	if !c.Shed {
		t.Fatal("cell admitted with heap at 2x the budget")
	}
	if c.ShedCause != "memory budget" {
		t.Fatalf("shed cause = %q, want memory budget", c.ShedCause)
	}
	if s.Sheds() != 1 {
		t.Fatalf("Sheds() = %d, want 1", s.Sheds())
	}
}

func TestSupervisorCancel(t *testing.T) {
	s := NewSupervisor(Policy{}, 1)
	running := s.Begin("running", 0)
	if running.Shed {
		t.Fatal("first cell shed")
	}
	// A second cell is parked in the admission queue; Cancel must release
	// and shed it rather than leaving it blocked forever.
	done := make(chan *CellCtx)
	go func() { done <- s.Begin("queued", 0) }()
	time.Sleep(5 * time.Millisecond)
	s.Cancel()
	s.Cancel() // idempotent
	queued := <-done
	if !queued.Shed || queued.ShedCause != "canceled" {
		t.Fatalf("queued cell not shed on cancel: shed=%v cause=%q", queued.Shed, queued.ShedCause)
	}
	if r := running.Flag.Raised(); r != vm.IntrCanceled {
		t.Fatalf("in-flight cell's flag not raised: %v", r)
	}
	if !s.Canceled() {
		t.Fatal("Canceled() = false after Cancel")
	}
	running.End()
	if late := s.Begin("late", 0); !late.Shed {
		t.Fatal("cell admitted after cancel")
	}
}

func TestSupervisorDeadlineArmsWatchdog(t *testing.T) {
	s := NewSupervisor(Policy{Deadline: 5 * time.Millisecond}, 1)
	c := s.Begin("cell", 0)
	defer c.End()
	deadline := time.After(2 * time.Second)
	for c.Flag.Raised() != vm.IntrDeadline {
		select {
		case <-deadline:
			t.Fatal("watchdog never fired")
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

type payload struct {
	Name  string `json:"name"`
	Value int    `json:"value"`
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append("a", payload{"a", 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append("b", payload{"b", 2}); err != nil {
		t.Fatal(err)
	}
	// Same key again: the later entry must win at load.
	if err := j.Append("a", payload{"a", 3}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, st, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 3 || st.Corrupt != 0 || st.Unparsed != 0 {
		t.Fatalf("stats = %+v", st)
	}
	var a payload
	if err := json.Unmarshal(got["a"], &a); err != nil {
		t.Fatal(err)
	}
	if a.Value != 3 {
		t.Fatalf("last entry per key must win: got value %d", a.Value)
	}
	if len(got) != 2 {
		t.Fatalf("loaded %d keys, want 2", len(got))
	}
}

func TestJournalMissingFileLoadsEmpty(t *testing.T) {
	got, st, err := LoadJournal(filepath.Join(t.TempDir(), "nope.jsonl"))
	if err != nil {
		t.Fatalf("missing journal must not error: %v", err)
	}
	if len(got) != 0 || st.Entries != 0 {
		t.Fatalf("missing journal loaded entries: %v %+v", got, st)
	}
}

func TestJournalDetectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt only key "bad": rewrite a digit, exactly like chaos mode does.
	j.SetCorruptor(func(key string, payload []byte) []byte {
		if key != "bad" {
			return payload
		}
		out := append([]byte(nil), payload...)
		for i := range out {
			if out[i] == '7' {
				out[i] = '9'
			}
		}
		return out
	})
	if err := j.Append("good", payload{"good", 11}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append("bad", payload{"bad", 77}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, st, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Corrupt != 1 {
		t.Fatalf("corrupt entries = %d, want 1 (stats %+v)", st.Corrupt, st)
	}
	if _, ok := got["bad"]; ok {
		t.Fatal("corrupted entry replayed instead of being dropped")
	}
	if _, ok := got["good"]; !ok {
		t.Fatal("intact entry lost")
	}
}

func TestJournalSkipsTornFinalLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append("whole", payload{"whole", 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a campaign killed mid-append: half an entry, no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"v":1,"key":"torn","sha2`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, st, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Unparsed != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 unparsed + 1 entry", st)
	}
	if _, ok := got["whole"]; !ok {
		t.Fatal("intact entry lost to the torn line")
	}
}

func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	if err := j.Append("k", payload{}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if j.Path() != "" || j.Entries() != 0 {
		t.Fatal("nil journal not inert")
	}
}
