// Command mi-prof renders hot-check tables from a performance report
// produced by mi-bench: which static check sites dominate the dynamic
// instrumentation cost, attributed to their C source locations.
//
// Usage:
//
//	mi-bench -fig9 -siteprofile -json perf.json
//	mi-prof perf.json                # top 10 sites per cell
//	mi-prof -top 25 perf.json        # deeper tables
//	mi-prof -bench gzip perf.json    # one benchmark only
//
// The input is the -json output of mi-bench; without -siteprofile the report
// carries no site tables and mi-prof says so.
//
// With -report, the input is instead a single violation-report JSON (as
// written by mi-bench -reports) and mi-prof renders it as text:
//
//	mi-prof -report reports/fault-000-....json
//
// With -diff, two perf reports are compared in canonical form (wall-clock
// times and backoff delays zeroed, records sorted): exit 0 and no output if
// every cell's counters match, exit 1 with one line per differing or missing
// cell otherwise. This is how the resume-after-kill check verifies that a
// resumed campaign reproduced the uninterrupted campaign's results exactly:
//
//	mi-prof -diff full.json resumed.json
//
// With -overheads, the input perf report (e.g. one saved by
// mi-bench -server ... -json) is re-rendered as the normalized overhead
// figure — the server-side analogue of running the figure locally:
//
//	mi-prof -overheads served.json
//
// With -tiers, the execution-tier attribution a compiler-engine campaign
// embeds in its report is rendered: per function, how many instructions
// retired in generated native code (the rest ran on the bytecode dispatch
// loop), plus the native tier's build ledger and fallback reasons:
//
//	mi-bench -fig9 -engine=compiler -json perf.json
//	mi-prof -tiers perf.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/harness"
	"repro/internal/telemetry"
	"repro/internal/version"
)

func main() {
	var (
		topN      = flag.Int("top", 10, "sites per (benchmark, config) cell (0 = all)")
		bench     = flag.String("bench", "", "restrict to one benchmark")
		config    = flag.String("config", "", "restrict to one configuration label")
		report    = flag.Bool("report", false, "treat the input as a violation-report JSON and render it as text")
		diff      = flag.Bool("diff", false, "compare two perf reports in canonical form (wall times zeroed); exit 1 on any difference")
		noStatus  = flag.Bool("ignore-status", false, "with -diff, also ignore cell status and attempt history (compare measurements only: chaos run vs clean run)")
		overheads = flag.Bool("overheads", false, "render the perf report as a normalized overhead figure (for reports saved from mi-bench -server campaigns)")
		metrics   = flag.Bool("metrics", false, "render the campaign metrics snapshot embedded in the perf report (mi-bench -metrics -json)")
		tiers     = flag.Bool("tiers", false, "render the execution-tier attribution table embedded in the perf report (mi-bench -engine=compiler -json)")

		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: mi-prof [flags] perf.json\n       mi-prof -report violation.json\n       mi-prof -overheads perf.json\n       mi-prof -diff a.json b.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *showVersion {
		fmt.Printf("mi-prof %s\n", version.String())
		return
	}
	if *diff {
		if flag.NArg() != 2 {
			flag.Usage()
			os.Exit(2)
		}
		diffReports(flag.Arg(0), flag.Arg(1), *noStatus)
		return
	}
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	if *report {
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "mi-prof: %v\n", err)
			os.Exit(1)
		}
		rep, err := telemetry.ParseReport(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mi-prof: parsing %s: %v\n", flag.Arg(0), err)
			os.Exit(1)
		}
		fmt.Print(rep.Render())
		return
	}

	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "mi-prof: %v\n", err)
		os.Exit(1)
	}
	var rep harness.PerfReport
	if err := json.Unmarshal(data, &rep); err != nil {
		fmt.Fprintf(os.Stderr, "mi-prof: parsing %s: %v\n", flag.Arg(0), err)
		os.Exit(1)
	}

	if *metrics {
		if rep.Metrics == nil {
			fmt.Fprintf(os.Stderr, "mi-prof: %s carries no metrics snapshot (rerun mi-bench with -metrics)\n", flag.Arg(0))
			os.Exit(1)
		}
		fmt.Print(rep.Metrics.Render())
		return
	}

	if *tiers {
		if rep.Tiers == nil {
			fmt.Fprintf(os.Stderr, "mi-prof: %s carries no tier attribution (rerun mi-bench with -engine=compiler)\n", flag.Arg(0))
			os.Exit(1)
		}
		fmt.Print(rep.Tiers.Render())
		return
	}

	if *overheads {
		title := fmt.Sprintf("Overheads from %s (engine=%s)", flag.Arg(0), rep.Engine)
		fig := harness.FigureFromReport(&rep, title, nil)
		fmt.Println(fig.Render())
		if len(fig.Failures) > 0 {
			for _, f := range fig.Failures {
				fmt.Fprintf(os.Stderr, "mi-prof: %s\n", f)
			}
			os.Exit(1)
		}
		return
	}

	if *bench != "" || *config != "" {
		kept := rep.Records[:0]
		for _, rec := range rep.Records {
			if *bench != "" && rec.Bench != *bench {
				continue
			}
			if *config != "" && rec.Config != *config {
				continue
			}
			kept = append(kept, rec)
		}
		rep.Records = kept
	}

	fmt.Print(harness.RenderHotChecks(&rep, *topN))
}

// diffReports compares two perf reports cell by cell in canonical form and
// exits nonzero on any difference.
func diffReports(pathA, pathB string, ignoreStatus bool) {
	load := func(path string) map[string]json.RawMessage {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mi-prof: %v\n", err)
			os.Exit(2)
		}
		var rep harness.PerfReport
		if err := json.Unmarshal(data, &rep); err != nil {
			fmt.Fprintf(os.Stderr, "mi-prof: parsing %s: %v\n", path, err)
			os.Exit(2)
		}
		cells := make(map[string]json.RawMessage)
		for _, rec := range rep.Canonical().Records {
			if ignoreStatus {
				rec.Status, rec.Attempts = "", nil
			}
			raw, err := json.Marshal(rec)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mi-prof: %s: %v\n", path, err)
				os.Exit(2)
			}
			cells[rec.Key] = raw
		}
		return cells
	}
	a, b := load(pathA), load(pathB)
	differs := 0
	for key, ra := range a {
		rb, ok := b[key]
		switch {
		case !ok:
			fmt.Printf("only in %s: %s\n", pathA, key)
			differs++
		case string(ra) != string(rb):
			fmt.Printf("differs: %s\n  %s: %s\n  %s: %s\n", key, pathA, ra, pathB, rb)
			differs++
		}
	}
	for key := range b {
		if _, ok := a[key]; !ok {
			fmt.Printf("only in %s: %s\n", pathB, key)
			differs++
		}
	}
	if differs > 0 {
		fmt.Printf("%d differing cell(s)\n", differs)
		os.Exit(1)
	}
}
