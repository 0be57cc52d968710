package harness

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/spec"
	"repro/internal/vm"
)

// SetResilience configures cell supervision (deadline, retries, memory
// budget) for subsequent runs. Configure before running cells: it rebuilds
// the admission gate.
func (r *Runner) SetResilience(pol resilience.Policy) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pol = pol
	r.sup = nil
}

// Supervisor returns the runner's cell supervisor, building it on first use
// from the configured policy and SetParallelism's width. mi-bench's signal
// handler calls its Cancel.
func (r *Runner) Supervisor() *resilience.Supervisor {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sup == nil {
		r.sup = resilience.NewSupervisor(r.pol, r.par)
		r.sup.SetMetrics(r.metrics)
	}
	return r.sup
}

// SetJournal installs a checkpoint journal: every completed cell is appended
// to it as it finishes. Nil disables journaling.
func (r *Runner) SetJournal(j *resilience.Journal) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.journal = j
	j.SetMetrics(r.metrics)
	r.wireChaosLocked()
}

// Journal returns the installed checkpoint journal (nil if none).
func (r *Runner) Journal() *resilience.Journal {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.journal
}

// SetChaos installs a chaos plan: cell attempts are killed and delayed, and
// journal entries corrupted, per the plan's deterministic schedule.
func (r *Runner) SetChaos(p faultinject.ChaosPlan) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.chaos = p
	r.wireChaosLocked()
}

// wireChaosLocked (r.mu held) installs the chaos plan's journal corruptor
// once both a journal and a corrupting plan are configured.
func (r *Runner) wireChaosLocked() {
	if r.journal == nil {
		return
	}
	if !r.chaos.Enabled() || r.chaos.CorruptProb <= 0 {
		r.journal.SetCorruptor(nil)
		return
	}
	plan := r.chaos
	r.journal.SetCorruptor(func(key string, payload []byte) []byte {
		if plan.Decide(key, 0).CorruptJournal {
			return plan.CorruptPayload(key, payload)
		}
		return payload
	})
}

// Resume loads the checkpoint journal at path: cells journaled there replay
// from it instead of executing. Entries that fail the content hash (chaos
// corruption, bit rot) or do not parse (torn final write) are skipped — those
// cells recompute — and counted in the returned stats.
func (r *Runner) Resume(path string) (resilience.LoadStats, error) {
	raw, st, err := resilience.LoadJournal(path)
	if err != nil {
		return st, err
	}
	cells := make(map[string]*CellRecord, len(raw))
	for key, payload := range raw {
		var c CellRecord
		if uerr := decodeCell(payload, &c); uerr != nil {
			// An entry that hashes correctly but does not decode is from an
			// incompatible writer: recompute rather than replay garbage.
			st.Entries--
			st.Unparsed++
			continue
		}
		cells[key] = &c
	}
	r.mu.Lock()
	r.resumed = cells
	reg := r.metrics
	r.mu.Unlock()
	reg.Counter("mi_journal_replayed_total", "Journaled cells armed for replay at resume.").Add(uint64(st.Entries))
	reg.Counter("mi_journal_corrupt_total", "Journal entries rejected by the content hash at resume.").Add(uint64(st.Corrupt))
	reg.Counter("mi_journal_unparsed_total", "Journal lines that did not parse at resume (torn writes, incompatible writers).").Add(uint64(st.Unparsed))
	return st, nil
}

// ResumedCells reports how many journaled cells are armed for replay.
func (r *Runner) ResumedCells() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.resumed)
}

// CellStatuses summarizes the supervised outcome of every executed cell:
// per-status counts, plus one "bench/config: status (cause)" line per cell
// that did not complete cleanly (everything except ok/retried) — the final
// campaign summary and the exit code are built from these.
func (r *Runner) CellStatuses() (map[string]int, []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	counts := make(map[string]int)
	var bad []string
	for _, e := range r.cache {
		res := e.res
		if res == nil {
			continue
		}
		counts[res.Status.String()]++
		if res.Status.Bad() {
			line := fmt.Sprintf("%s/%s: %s", res.Bench, res.Config.Label, res.Status)
			if res.Err != nil {
				line += fmt.Sprintf(" (%v)", res.Err)
			}
			bad = append(bad, line)
		}
	}
	sort.Strings(bad)
	return counts, bad
}

// classifyCell maps a cell attempt's error to its status: recovered panics
// first (they arrive as *panicError), then the resilience taxonomy.
func classifyCell(err error) resilience.CellStatus {
	var pe *panicError
	if errors.As(err, &pe) {
		return resilience.StatusPanic
	}
	return resilience.Classify(err)
}

// mechLabel is the cell's mechanism metric label: the instrumentation
// mechanism, or "none" for uninstrumented (baseline) cells.
func mechLabel(cfg RunConfig) string {
	if !cfg.Instrument {
		return "none"
	}
	return cfg.Core.Mechanism.String()
}

// observeCell records one completed cell into the metrics registry: the
// engine×mechanism×status cell count and the execute/total latency
// histograms whose per-status counts must reconcile with the cell count.
func observeCell(reg *obs.Registry, engine bytecode.EngineKind, cfg RunConfig, status resilience.CellStatus, execute, total time.Duration) {
	eng := obs.L("engine", engine.String())
	mech := obs.L("mechanism", mechLabel(cfg))
	st := obs.L("status", status.String())
	reg.Counter("mi_cells_total", "Supervised cells completed, by engine, mechanism and final status.", eng, mech, st).Inc()
	reg.Histogram("mi_cell_execute_seconds", "VM execution wall time of the cell's final attempt.", obs.DefBuckets, eng, mech, st).Observe(execute.Seconds())
	reg.Histogram("mi_cell_total_seconds", "Cell wall time from supervision entry to completion (queueing on the admission gate, attempts, backoffs).", obs.DefBuckets, eng, mech, st).Observe(total.Seconds())
}

// supervise runs one cell under the supervision policy: admission (and
// shedding) by the supervisor, chaos injections, the per-attempt watchdog
// flag, retry with backoff on transient failures, and checkpoint journaling
// of the completed result.
func (r *Runner) supervise(b *spec.Benchmark, cfg RunConfig, ax RunAxes, key string, rc RunCtx) (*Result, error) {
	r.mu.Lock()
	rec := r.resumed[key]
	chaos := r.chaos
	journal := r.journal
	reg := r.metrics
	r.mu.Unlock()
	lg := r.cellLogger(b.Name, cfg.Label, ax.Engine, rc)
	if rec != nil {
		res := resumeResult(b, cfg, rec)
		reg.Counter("mi_cells_resumed_total", "Cells replayed from the checkpoint journal instead of executing.").Inc()
		if lg != nil {
			lg.Info("cell resumed from journal", "status", res.Status.String())
		}
		return res, nil
	}
	entered := time.Now()
	sup := r.Supervisor()
	maxAttempts := sup.MaxAttempts()
	var attempts []resilience.Attempt
	for attempt := 0; ; attempt++ {
		cell := sup.BeginTier(key, attempt, ax.Engine.String())
		if cell.Shed {
			reg.Counter("mi_cell_sheds_total", "Cells shed (skipped) by the supervisor, by cause.", obs.L("cause", cell.ShedCause)).Inc()
			observeCell(reg, ax.Engine, cfg, resilience.StatusSkipped, 0, time.Since(entered))
			if lg != nil {
				lg.Warn("cell shed", "cause", cell.ShedCause)
			}
			return &Result{
				Bench: b.Name, Config: cfg,
				Status:   resilience.StatusSkipped,
				Attempts: attempts,
				Err:      fmt.Errorf("%s under %s skipped: %s", b.Name, cfg.Label, cell.ShedCause),
			}, nil
		}
		act := chaos.Decide(key, attempt)
		if act.Delay > 0 {
			time.Sleep(act.Delay)
		}
		var kill *time.Timer
		if act.Kill {
			flag := cell.Flag
			kill = time.AfterFunc(act.KillAfter, func() { flag.Interrupt(vm.IntrChaos) })
		}
		start := time.Now()
		res, err := r.runAttempt(b, cfg, ax, cell.Flag, attempt, rc)
		if kill != nil {
			kill.Stop()
		}
		cell.End()
		if err != nil {
			// Infrastructure failure (the benchmark does not compile):
			// deterministic, nothing to retry or journal.
			return nil, err
		}
		var intr *vm.InterruptError
		if res.Err != nil && errors.As(res.Err, &intr) {
			reg.Counter("mi_watchdog_interrupts_total", "Engine aborts on a raised interrupt flag, by reason.", obs.L("reason", vm.ReasonString(intr.Reason))).Inc()
		}
		status := classifyCell(res.Err)
		att := resilience.Attempt{Status: status.String(), WallMS: msSince(start)}
		if res.Err != nil {
			att.Detail = res.Err.Error()
		}
		if status.Transient() && attempt+1 < maxAttempts && !sup.Canceled() {
			back := sup.Backoff(attempt)
			att.BackoffMS = float64(back.Microseconds()) / 1000.0
			attempts = append(attempts, att)
			reg.Counter("mi_retries_total", "Cell attempts retried after a transient failure, by the failed attempt's status.", obs.L("status", status.String())).Inc()
			if lg != nil {
				lg.Warn("cell retrying", "attempt", attempt+1, "status", status.String(),
					"err", res.Err.Error(), "backoff_ms", att.BackoffMS)
			}
			time.Sleep(back)
			continue
		}
		attempts = append(attempts, att)
		if status == resilience.StatusOK && attempt > 0 {
			status = resilience.StatusRetried
		}
		res.Status = status
		res.Attempts = attempts
		observeCell(reg, ax.Engine, cfg, status, res.Wall, time.Since(entered))
		if journal != nil && status.Completed() {
			if jerr := journal.Append(key, cellRecord(key, res)); jerr != nil {
				if lg != nil {
					lg.Error("journal append failed", "err", jerr.Error())
				}
			}
		}
		return res, nil
	}
}

// msSince is wall time since start in milliseconds.
func msSince(start time.Time) float64 {
	return float64(time.Since(start).Microseconds()) / 1000.0
}

// resumeResult synthesizes a Result from a journaled cell: enough for every
// downstream consumer (Overhead's output comparison, Table 2's stats, the
// elimination tables, the PerfReport — which replays the stored record
// verbatim).
func resumeResult(b *spec.Benchmark, cfg RunConfig, c *CellRecord) *Result {
	rec := c.Rec
	res := &Result{
		Bench:     b.Name,
		Config:    cfg,
		Output:    c.Output,
		Stats:     c.Stats,
		PipeStats: c.Pipe,
		Status:    resilience.ParseStatus(rec.Status),
		Attempts:  rec.Attempts,
		Resumed:   true,
		rec:       &rec,
	}
	if c.Instr != nil {
		res.InstrStats = &core.Stats{
			Functions:       c.Instr.Functions,
			DerefTargets:    c.Instr.DerefTargets,
			Opt:             c.Instr.Opt,
			ChecksPlaced:    c.Instr.ChecksPlaced,
			InvariantChecks: c.Instr.InvariantChecks,
			MetadataStores:  c.Instr.MetadataStores,
			ShadowFrames:    c.Instr.ShadowFrames,
			WitnessPhis:     c.Instr.WitnessPhis,
			WitnessSelects:  c.Instr.WitnessSelects,
		}
	}
	if rec.Err != "" {
		res.Err = errors.New(rec.Err)
	}
	return res
}
