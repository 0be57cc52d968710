// Command mi-bench regenerates the tables and figures of the paper's
// evaluation (Section 5 and Table 2) on the simulated substrate, plus the
// fault-injection detection matrix behind the security analysis (Section 6).
//
// Usage:
//
//	mi-bench -all            # everything
//	mi-bench -fig9           # runtime comparison SoftBound vs Low-Fat
//	mi-bench -fig10 -fig11   # optimization/metadata breakdowns
//	mi-bench -fig12 -fig13   # pipeline extension points
//	mi-bench -table2         # unsafe dereference percentages
//	mi-bench -elim           # Section 5.3 check elimination statistics
//	mi-bench -checkopt       # check-optimization ablation (off/dom/dom+hoist)
//	mi-bench -faults         # fault-injection detection matrix
//
// Cross-cutting flags: -engine=tree|bytecode selects the execution engine
// (default bytecode; tree is the reference interpreter), -j N caps
// concurrent benchmark cells, -json FILE dumps per-cell instruction/check
// counts and wall times, and -cpuprofile/-memprofile write pprof profiles.
//
// Telemetry flags: -siteprofile collects per-check-site execution counters
// (included in -json, rendered by -hotchecks or the mi-prof command),
// -trace FILE writes a Chrome trace-event JSON of the compile/instrument/
// optimize/execute pipeline (load it at ui.perfetto.dev), -top N bounds the
// rendered hot-check table, and -progress streams structured per-cell logs
// to stderr (-log-level/-log-format tune them; -heartbeat periodically
// names the oldest still-running cell so a stuck campaign identifies its
// stuck cell). -metrics attaches a campaign metrics registry: the snapshot
// prints after the figures and embeds in the -json report, where
// mi-prof -metrics renders it.
//
// Robustness flags (long campaigns): -deadline bounds each cell's wall time
// via a cooperative watchdog (hung cells report as "timeout" instead of
// hanging the campaign), -retries N retries transient failures with
// exponential backoff, -journal FILE checkpoints completed cells and
// -resume FILE replays them so a killed campaign restarts in O(remaining
// cells), -mem-budget sheds parallelism (then, as last resort, cells) under
// memory pressure, and -chaos turns the fault injector against the harness
// itself. SIGINT/SIGTERM cancel in-flight cells cooperatively and flush the
// journal and partial -json report before exiting.
//
// Individual experiment failures never abort the run: affected cells are
// annotated in place, all failures are summarized at the end, and the exit
// status is nonzero when anything failed — including any cell whose final
// status is not ok/retried.
//
// Server mode: -server URL submits the campaign to a running mi-serve
// instead of executing locally (-fig9 for the standard matrix, or -configs
// name,name,... with optional -benches), streams per-cell results, and
// renders the merged report exactly as a local run would. -record FILE
// appends each submitted request to a traffic log replayable with
// mi-serve -replay.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/telemetry"
	"repro/internal/version"
)

func main() {
	var (
		all    = flag.Bool("all", false, "run every experiment")
		fig9   = flag.Bool("fig9", false, "Figure 9: SB vs LF runtime")
		fig10  = flag.Bool("fig10", false, "Figure 10: SoftBound breakdown")
		fig11  = flag.Bool("fig11", false, "Figure 11: Low-Fat breakdown")
		fig12  = flag.Bool("fig12", false, "Figure 12: SoftBound extension points")
		fig13  = flag.Bool("fig13", false, "Figure 13: Low-Fat extension points")
		table2 = flag.Bool("table2", false, "Table 2: unsafe dereferences")
		elim   = flag.Bool("elim", false, "Section 5.3: check elimination")
		ablate = flag.Bool("ablation", false, "ablation: Low-Fat escape-check elimination (beyond the paper)")

		checkOpt     = flag.Bool("checkopt", false, "ablation: dynamic check counts at off/dominance/dominance+hoist levels")
		checkOptJSON = flag.String("checkopt-json", "", "write the -checkopt report to this JSON file")
		checkOptMD   = flag.String("checkopt-md", "", "write the -checkopt report to this Markdown file")

		faults       = flag.Bool("faults", false, "fault-injection campaign: detection matrix per mechanism")
		faultSeed    = flag.Int64("fault-seed", 1, "seed for fault-site selection")
		faultPerKind = flag.Int("fault-per-kind", 1, "faults planted per kind per benchmark")

		vmMemBudget = flag.Uint64("vm-mem-budget", 1<<30, "per-variant VM memory budget in bytes (0 = unlimited)")
		vmMaxSteps  = flag.Uint64("vm-max-steps", 1<<30, "per-variant VM step limit")

		engineName = flag.String("engine", "bytecode", "execution engine: tree (reference interpreter), bytecode, or compiler (bytecode plus native code)")
		jobs       = flag.Int("j", 0, "max concurrent benchmark cells (0 = default of 8)")
		jsonOut    = flag.String("json", "", "write per-benchmark counts and wall times to this JSON file")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit")

		forensics  = flag.Bool("forensics", false, "enable violation forensics (allocation tracking, flight recorder, structured reports) in figure/table runs")
		reportsDir = flag.String("reports", "", "write the violation reports of detected -faults variants as JSON files into this directory (implies -faults)")

		siteProf  = flag.Bool("siteprofile", false, "collect per-check-site execution counters (adds site tables to -json)")
		traceOut  = flag.String("trace", "", "write a Chrome trace-event JSON of the pipeline to this file")
		hotChecks = flag.Bool("hotchecks", false, "render hot-check tables from the collected site profiles (implies -siteprofile)")
		topN      = flag.Int("top", 10, "sites per (benchmark, config) cell in the -hotchecks table (0 = all)")
		progress  = flag.Bool("progress", false, "stream structured per-cell records to stderr (see -log-level/-log-format)")
		logLevel  = flag.String("log-level", "info", "-progress log level: debug, info, warn, error (debug adds cell-start and instrumentation records)")
		logFormat = flag.String("log-format", "text", "-progress log format: text or json")
		heartbeat = flag.Duration("heartbeat", 10*time.Second, "with -progress, emit a still-running record for the oldest in-flight cell at this interval (0 = off)")
		metrics   = flag.Bool("metrics", false, "collect campaign metrics (counters, latency histograms); snapshotted into -json and rendered at exit")

		deadline   = flag.Duration("deadline", 0, "per-cell wall-clock deadline; a spinning cell is interrupted cooperatively and reported as timeout (0 = none)")
		retries    = flag.Int("retries", 0, "max attempts per cell for transient failures (0 = auto: 1, or 3 under -chaos)")
		backoff    = flag.Duration("backoff", 0, "base retry backoff, doubled per retry with jitter (0 = default 100ms)")
		memBudget  = flag.Uint64("mem-budget", 0, "campaign heap budget in bytes: above 80% the scheduler sheds parallelism, cells are shed (skipped) only as last resort (0 = unlimited)")
		journalOut = flag.String("journal", "", "append completed cells to this checkpoint journal (JSONL)")
		resumeFrom = flag.String("resume", "", "replay completed cells from this checkpoint journal; implies -journal FILE unless set")
		chaos      = flag.Bool("chaos", false, "chaos mode: kill cells mid-run, inject scheduling delays, corrupt journal entries (self-test of the supervision layer)")
		chaosSeed  = flag.Int64("chaos-seed", 1, "seed for the chaos injection schedule")

		serverURL  = flag.String("server", "", "submit the campaign to a running mi-serve at this base URL instead of executing locally")
		record     = flag.String("record", "", "append submitted -server requests to this traffic log (JSONL, replayable with mi-serve -replay)")
		configList = flag.String("configs", "", "server mode: comma-separated named configs for the campaign matrix (see mi-serve; -fig9 is shorthand for baseline,softbound,lowfat)")
		benchList  = flag.String("benches", "", "server mode: comma-separated benchmark subset (empty = all)")

		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Printf("mi-bench %s\n", version.String())
		return
	}

	engine, err := bytecode.ParseEngine(*engineName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mi-bench: %v\n", err)
		os.Exit(2)
	}

	if *serverURL != "" {
		os.Exit(runClient(clientOptions{
			URL:      *serverURL,
			Record:   *record,
			Engine:   engine.String(),
			Fig9:     *fig9,
			Configs:  splitList(*configList),
			Benches:  splitList(*benchList),
			SiteProf: *siteProf,
			JSONOut:  *jsonOut,
			Progress: *progress,
		}))
	}

	if *checkOptJSON != "" || *checkOptMD != "" {
		*checkOpt = true
	}
	if *reportsDir != "" {
		*faults = true
	}
	if !(*all || *fig9 || *fig10 || *fig11 || *fig12 || *fig13 || *table2 || *elim || *ablate || *checkOpt || *faults) {
		flag.Usage()
		os.Exit(2)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mi-bench: %v\n", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "mi-bench: cpuprofile: %v\n", err)
			os.Exit(2)
		}
	}
	// os.Exit skips defers, so profile and journal teardown ride the exit
	// path.
	var journal *resilience.Journal
	stopHeartbeat := func() {}
	exit := func(code int) {
		stopHeartbeat()
		if err := journal.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "mi-bench: journal: %v\n", err)
		}
		if *cpuProfile != "" {
			pprof.StopCPUProfile()
		}
		if *memProfile != "" {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mi-bench: memprofile: %v\n", err)
			} else {
				runtime.GC()
				if err := pprof.WriteHeapProfile(f); err != nil {
					fmt.Fprintf(os.Stderr, "mi-bench: memprofile: %v\n", err)
				}
				f.Close()
			}
		}
		os.Exit(code)
	}

	r := harness.NewRunner()
	r.SetParallelism(*jobs)
	if *hotChecks {
		*siteProf = true
	}
	r.SetAxes(harness.RunAxes{Engine: engine, SiteProfile: *siteProf, Forensics: *forensics})
	var trace *telemetry.Trace
	if *traceOut != "" {
		trace = telemetry.NewTrace()
		r.SetTrace(trace)
	}
	// One trace ID per campaign: every structured log record and trace span
	// of this run carries it.
	r.SetTraceID(obs.NewTraceID())
	if *progress {
		lg, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mi-bench: %v\n", err)
			exit(2)
		}
		r.SetLogger(lg)
	}
	var reg *obs.Registry
	if *metrics {
		reg = obs.NewRegistry()
		r.SetMetrics(reg)
	}

	attempts := *retries
	if attempts <= 0 {
		attempts = 1
		if *chaos {
			// Chaos kills cells on their first attempt; retries are how the
			// campaign converges to zero lost results.
			attempts = 3
		}
	}
	r.SetResilience(resilience.Policy{
		Deadline:    *deadline,
		MaxAttempts: attempts,
		BackoffBase: *backoff,
		MemBudget:   *memBudget,
	})
	if *chaos {
		r.SetChaos(faultinject.DefaultChaosPlan(*chaosSeed))
	}
	if *resumeFrom != "" {
		if *journalOut == "" {
			*journalOut = *resumeFrom
		}
		st, err := r.Resume(*resumeFrom)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mi-bench: resume: %v\n", err)
			exit(2)
		}
		fmt.Fprintf(os.Stderr, "mi-bench: resume: replaying %d cell(s) from %s (%d corrupt, %d unparsed entries will recompute)\n",
			st.Entries, *resumeFrom, st.Corrupt, st.Unparsed)
	}
	if *journalOut != "" {
		j, err := resilience.OpenJournal(*journalOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mi-bench: journal: %v\n", err)
			exit(2)
		}
		journal = j
		r.SetJournal(j)
	}

	// SIGINT/SIGTERM cancel in-flight cells cooperatively: supervised cells
	// observe the interrupt flag within vm.InterruptStride instructions and
	// surface as skipped, then the main path flushes the journal and the
	// partial -json report before exiting nonzero. A second signal exits
	// immediately.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigs
		fmt.Fprintf(os.Stderr, "mi-bench: %v: canceling in-flight cells (journal and partial report flush before exit)\n", s)
		r.Supervisor().Cancel()
		<-sigs
		fmt.Fprintln(os.Stderr, "mi-bench: second signal, exiting now")
		os.Exit(130)
	}()

	// Progress heartbeat: while cells run, report the oldest in-flight one at
	// a fixed interval, so a long campaign is visibly alive — not hung.
	if *progress && *heartbeat > 0 {
		start := time.Now()
		stopHeartbeat = r.Supervisor().Heartbeat(*heartbeat, func(c resilience.ActiveCell) {
			if lg := r.Logger(); lg != nil {
				lg.Info("still running",
					"key", c.Key,
					"tier", c.Tier,
					"attempt", c.Attempt+1,
					"elapsed", time.Since(c.Started).Round(time.Millisecond).String(),
					"campaign_elapsed", time.Since(start).Round(time.Second).String())
			}
		})
	}

	var failures []string
	note := func(what string, msg string) {
		failures = append(failures, what+": "+msg)
	}
	figure := func(enabled bool, name string, gen func() (*harness.Figure, error)) {
		if !enabled && !*all {
			return
		}
		fig, err := gen()
		if err != nil {
			note(name, err.Error())
			return
		}
		fmt.Println(fig.Render())
		for _, f := range fig.Failures {
			note(name, f)
		}
	}

	if *table2 || *all {
		rows, err := r.Table2()
		if err != nil {
			note("table2", err.Error())
		} else {
			fmt.Println(harness.RenderTable2(rows))
			for _, row := range rows {
				if row.Failed != "" {
					note("table2", row.Bench+": "+row.Failed)
				}
			}
		}
	}
	figure(*fig9, "fig9", r.Figure9)
	figure(*fig10, "fig10", r.Figure10)
	figure(*fig11, "fig11", r.Figure11)
	figure(*fig12, "fig12", r.Figure12)
	figure(*fig13, "fig13", r.Figure13)
	figure(*ablate, "ablation", r.AblationInvariantElim)
	if *elim || *all {
		for _, mech := range []core.Mech{core.MechSoftBound, core.MechLowFat} {
			rows, err := r.EliminationStats(mech)
			if err != nil {
				note("elim/"+mech.String(), err.Error())
				continue
			}
			fmt.Println(harness.RenderElimination(rows))
			for _, row := range rows {
				if row.Failed != "" {
					note("elim/"+mech.String(), row.Bench+": "+row.Failed)
				}
			}
		}
	}
	if *checkOpt || *all {
		rep := r.CheckOptAblation(nil)
		fmt.Println(harness.RenderCheckOpt(rep))
		for _, row := range rep.Rows {
			for _, cell := range []harness.CheckOptCell{row.Off, row.Dom, row.Hoist} {
				if cell.Err != "" {
					note("checkopt", row.Bench+"/"+row.Mech+": "+cell.Err)
				}
			}
		}
		if *checkOptJSON != "" {
			if err := harness.WriteCheckOptJSON(rep, *checkOptJSON); err != nil {
				note("checkopt-json", err.Error())
			}
		}
		if *checkOptMD != "" {
			if err := os.WriteFile(*checkOptMD, []byte(harness.RenderCheckOptMarkdown(rep)), 0o644); err != nil {
				note("checkopt-md", err.Error())
			}
		}
	}
	if *faults || *all {
		rep := faultinject.Run(faultinject.Options{
			Seed:      *faultSeed,
			PerKind:   *faultPerKind,
			MaxSteps:  *vmMaxSteps,
			MemBudget: *vmMemBudget,
			NoBudget:  *vmMemBudget == 0,
			Parallel:  *jobs,
			Engine:    engine,
		})
		fmt.Println(rep.Render())
		attributed, attributable := 0, 0
		for _, vr := range rep.Results {
			if vr.Outcome == faultinject.OutDetected && !vr.Fault.Benign && vr.ExpectedAlloc != 0 {
				attributable++
				if vr.Attributed {
					attributed++
				}
			}
		}
		fmt.Printf("attribution: %d/%d detected faults named their allocation site in the violation report\n\n",
			attributed, attributable)
		for _, f := range rep.Failures {
			note("faults", f)
		}
		for _, vr := range rep.Unexpected() {
			note("faults", fmt.Sprintf("unexpected outcome: %s under %s: %s (expected %s)",
				vr.Fault, vr.Mech, vr.Outcome, vr.Expect))
		}
		if *reportsDir != "" {
			if err := writeReports(*reportsDir, rep); err != nil {
				note("reports", err.Error())
			}
		}
	}

	if *hotChecks {
		fmt.Println(harness.RenderHotChecks(r.PerfReport(), *topN))
	}
	if *jsonOut != "" {
		if err := r.WritePerfJSON(*jsonOut); err != nil {
			note("json", err.Error())
		}
	}
	if *traceOut != "" {
		harness.PublishNativeBuildSpans(trace)
		if err := trace.WriteChromeJSON(*traceOut); err != nil {
			note("trace", err.Error())
		}
	}

	// Final cell-status summary: every supervised cell accounted for, every
	// cell that did not complete cleanly listed, and a nonzero exit if any
	// cell failed, timed out, was shed or was aborted — even when the
	// figure-level reporting absorbed it.
	counts, badCells := r.CellStatuses()
	if len(counts) > 0 {
		var keys []string
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(os.Stderr, "mi-bench: cells:")
		for _, k := range keys {
			fmt.Fprintf(os.Stderr, " %s=%d", k, counts[k])
		}
		fmt.Fprintln(os.Stderr)
	}
	if journal != nil {
		fmt.Fprintf(os.Stderr, "mi-bench: journal: %d cell(s) appended to %s\n", journal.Entries(), journal.Path())
	}
	if reg != nil {
		harness.PublishEngineTierMetrics(reg)
		if snap := reg.Snapshot(); snap != nil {
			fmt.Println(snap.Render())
		}
	}
	if r.Supervisor().Canceled() {
		note("campaign", "canceled by signal before completion")
	}
	if len(badCells) > 0 {
		fmt.Fprintf(os.Stderr, "mi-bench: %d cell(s) did not complete cleanly:\n", len(badCells))
		for _, c := range badCells {
			fmt.Fprintf(os.Stderr, "  %s\n", c)
		}
	}
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "mi-bench: %d failure(s):\n", len(failures))
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "  %s\n", f)
		}
	}
	if len(failures) > 0 || len(badCells) > 0 {
		exit(1)
	}
	exit(0)
}

// writeReports dumps the violation report of every variant that produced one
// as a JSON file, named deterministically after the fault and mechanism.
func writeReports(dir string, rep *faultinject.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	written := 0
	for i, vr := range rep.Results {
		if vr.Report == nil {
			continue
		}
		data, err := vr.Report.JSON()
		if err != nil {
			return fmt.Errorf("report %d: %w", i, err)
		}
		name := fmt.Sprintf("fault-%03d-%s-%s-%s.json", i, vr.Fault.Bench, vr.Fault.Kind, vr.Mech)
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return err
		}
		written++
	}
	fmt.Printf("wrote %d violation report(s) to %s\n", written, dir)
	return nil
}
