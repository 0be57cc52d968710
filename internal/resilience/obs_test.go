package resilience

import (
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestActiveAndHeartbeat exercises the progress-heartbeat plumbing: BeginTier
// registers the attempt as active with its execution tier, the heartbeat
// emits the oldest active cell at its cadence, and stop halts emissions
// idempotently.
func TestActiveAndHeartbeat(t *testing.T) {
	s := NewSupervisor(Policy{}, 2)
	c := s.BeginTier("cell-a", 1, "compiler")
	if c.Shed {
		t.Fatal("cell shed with an empty supervisor")
	}

	act := s.Active()
	if len(act) != 1 || act[0].Key != "cell-a" || act[0].Attempt != 1 || act[0].Tier != "compiler" {
		t.Fatalf("Active() = %+v, want one cell-a attempt 1 on tier compiler", act)
	}
	if act[0].Started.IsZero() {
		t.Error("active cell has no start time")
	}

	var mu sync.Mutex
	var got []ActiveCell
	stop := s.Heartbeat(2*time.Millisecond, func(c ActiveCell) {
		mu.Lock()
		got = append(got, c)
		mu.Unlock()
	})
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("heartbeat emitted %d beats, want >= 2", n)
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // idempotent

	mu.Lock()
	first := got[0]
	n := len(got)
	mu.Unlock()
	if first.Key != "cell-a" || first.Attempt != 1 || first.Tier != "compiler" {
		t.Errorf("heartbeat emitted %+v, want cell-a attempt 1 on tier compiler", first)
	}
	time.Sleep(20 * time.Millisecond)
	mu.Lock()
	after := len(got)
	mu.Unlock()
	if after != n {
		t.Errorf("heartbeat kept emitting after stop: %d -> %d beats", n, after)
	}

	c.End()
	if act := s.Active(); len(act) != 0 {
		t.Errorf("Active() = %+v after End, want empty", act)
	}

	// An idle supervisor's heartbeat stays silent, and a zero cadence is a
	// no-op.
	quiet := s.Heartbeat(2*time.Millisecond, func(c ActiveCell) {
		t.Errorf("heartbeat emitted %+v with no active cells", c)
	})
	time.Sleep(10 * time.Millisecond)
	quiet()
	noop := s.Heartbeat(0, nil)
	noop()
}

// TestWatchdogMetric pins the watchdog-fire counter: a cell that outlives
// its deadline increments both WatchdogFires and mi_watchdog_fires_total.
func TestWatchdogMetric(t *testing.T) {
	s := NewSupervisor(Policy{Deadline: 5 * time.Millisecond}, 1)
	reg := obs.NewRegistry()
	s.SetMetrics(reg)
	c := s.Begin("slow-cell", 0)
	deadline := time.Now().Add(5 * time.Second)
	for c.Flag.Raised() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("watchdog never raised the interrupt flag")
		}
		time.Sleep(time.Millisecond)
	}
	c.End()
	if got := s.WatchdogFires(); got != 1 {
		t.Errorf("WatchdogFires() = %d, want 1", got)
	}
	if got := reg.Snapshot().SumCounter("mi_watchdog_fires_total"); got != 1 {
		t.Errorf("mi_watchdog_fires_total = %v, want 1", got)
	}
}

// TestJournalMetrics pins the journal append counter.
func TestJournalMetrics(t *testing.T) {
	j, err := OpenJournal(filepath.Join(t.TempDir(), "cells.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	reg := obs.NewRegistry()
	j.SetMetrics(reg)
	for i := 0; i < 3; i++ {
		if err := j.Append("k", map[string]int{"n": i}); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	if got := snap.SumCounter("mi_journal_appends_total"); got != 3 {
		t.Errorf("mi_journal_appends_total = %v, want 3", got)
	}
	if got := snap.SumCounter("mi_journal_append_errors_total"); got != 0 {
		t.Errorf("mi_journal_append_errors_total = %v, want 0", got)
	}
}
