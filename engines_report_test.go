package repro

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/bytecode"
	"repro/internal/spec"
	"repro/internal/vm"
)

// This file regenerates BENCH_ENGINES.json and BENCH_ENGINES.md: the
// per-benchmark engine comparison (tree / bytecode / compiler) that records
// the repo's performance trajectory in machine-readable form. It runs only
// when explicitly requested —
//
//	MI_GEN_BENCH=1 go test -run TestRegenerateBenchEngines -timeout 3600s .
//
// — because it executes the full standard campaign on all three engines on a
// quiet machine. While measuring it also cross-checks that every cell's full
// vm.Stats is bit-identical across engines, so the published speedups are
// guaranteed to compare equal simulated work.

type engineBenchRow struct {
	Name string `json:"name"`
	// Best-of-reps wall time per engine, nanoseconds, summed over the
	// benchmark's three campaign cells (baseline, SoftBound, Low-Fat).
	TreeNS     int64 `json:"tree_ns"`
	BytecodeNS int64 `json:"bytecode_ns"`
	CompilerNS int64 `json:"compiler_ns"`
	// SimInstrs is the summed vm.Stats.Instrs over the cells (identical
	// across engines by construction).
	SimInstrs uint64 `json:"sim_instrs"`

	BytecodeVsTree     float64 `json:"speedup_bytecode_vs_tree"`
	CompilerVsBytecode float64 `json:"speedup_compiler_vs_bytecode"`
	CompilerVsTree     float64 `json:"speedup_compiler_vs_tree"`
}

type engineBenchReport struct {
	Generated  string           `json:"generated"`
	GoVersion  string           `json:"go_version"`
	Reps       int              `json:"reps"`
	Benchmarks []engineBenchRow `json:"benchmarks"`
	Geomean    struct {
		BytecodeVsTree     float64 `json:"bytecode_vs_tree"`
		CompilerVsBytecode float64 `json:"compiler_vs_bytecode"`
		CompilerVsTree     float64 `json:"compiler_vs_tree"`
	} `json:"geomean"`
}

func TestRegenerateBenchEngines(t *testing.T) {
	if os.Getenv("MI_GEN_BENCH") == "" {
		t.Skip("set MI_GEN_BENCH=1 to regenerate BENCH_ENGINES.{json,md}")
	}
	const reps = 3
	engines := []bytecode.EngineKind{bytecode.EngineTree, bytecode.EngineBytecode, bytecode.EngineCompiler}

	rep := engineBenchReport{
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		Reps:      reps,
	}
	b := &testing.B{}
	for _, sb := range spec.All() {
		cells := prepareEngineCells(b, []*spec.Benchmark{sb})
		row := engineBenchRow{Name: sb.Name}
		var refStats []vm.Stats
		for _, kind := range engines {
			n := reps
			if kind == bytecode.EngineTree {
				n = 1 // the tree engine is ~25x slower; one rep is plenty
			}
			var best time.Duration
			for r := 0; r < n; r++ {
				var d time.Duration
				var stats []vm.Stats
				for _, c := range cells {
					machine, err := vm.New(c.m, c.opts)
					if err != nil {
						t.Fatal(err)
					}
					start := time.Now()
					if rerr := c.run(kind, machine); rerr != nil {
						t.Fatalf("%s on %v: %v", c.key, kind, rerr)
					}
					d += time.Since(start)
					stats = append(stats, machine.Stats)
				}
				if refStats == nil {
					refStats = stats
				} else {
					for i := range stats {
						if stats[i] != refStats[i] {
							t.Fatalf("%s cell %s: engine %v produced different vm.Stats", sb.Name, cells[i].key, kind)
						}
					}
				}
				if best == 0 || d < best {
					best = d
				}
			}
			switch kind {
			case bytecode.EngineTree:
				row.TreeNS = best.Nanoseconds()
			case bytecode.EngineBytecode:
				row.BytecodeNS = best.Nanoseconds()
			case bytecode.EngineCompiler:
				row.CompilerNS = best.Nanoseconds()
			}
		}
		for _, s := range refStats {
			row.SimInstrs += s.Instrs
		}
		row.BytecodeVsTree = float64(row.TreeNS) / float64(row.BytecodeNS)
		row.CompilerVsBytecode = float64(row.BytecodeNS) / float64(row.CompilerNS)
		row.CompilerVsTree = float64(row.TreeNS) / float64(row.CompilerNS)
		rep.Benchmarks = append(rep.Benchmarks, row)
		t.Logf("%-14s tree=%-12v bytecode=%-12v compiler=%-12v compiler/bytecode=%.2fx",
			row.Name, time.Duration(row.TreeNS), time.Duration(row.BytecodeNS), time.Duration(row.CompilerNS), row.CompilerVsBytecode)
	}

	geo := func(pick func(engineBenchRow) float64) float64 {
		sum := 0.0
		for _, r := range rep.Benchmarks {
			sum += math.Log(pick(r))
		}
		return math.Exp(sum / float64(len(rep.Benchmarks)))
	}
	rep.Geomean.BytecodeVsTree = geo(func(r engineBenchRow) float64 { return r.BytecodeVsTree })
	rep.Geomean.CompilerVsBytecode = geo(func(r engineBenchRow) float64 { return r.CompilerVsBytecode })
	rep.Geomean.CompilerVsTree = geo(func(r engineBenchRow) float64 { return r.CompilerVsTree })

	js, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_ENGINES.json", append(js, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_ENGINES.md", []byte(formatBenchEnginesMD(&rep)), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("geomean: bytecode/tree=%.2fx compiler/bytecode=%.2fx compiler/tree=%.2fx",
		rep.Geomean.BytecodeVsTree, rep.Geomean.CompilerVsBytecode, rep.Geomean.CompilerVsTree)
}

func formatBenchEnginesMD(rep *engineBenchReport) string {
	var sb strings.Builder
	ms := func(ns int64) string { return fmt.Sprintf("%.1f ms", float64(ns)/1e6) }
	sb.WriteString("# Engine comparison — tree vs. bytecode vs. compiler\n\n")
	sb.WriteString("Per-benchmark wall time of the standard campaign cells (baseline,\n")
	sb.WriteString("SoftBound, Low-Fat) on each execution tier, measured on the container's\n")
	fmt.Fprintf(&sb, "single CPU (%s, best of %d runs; tree measured once). Machine-readable\n", rep.GoVersion, rep.Reps)
	sb.WriteString("copy: BENCH_ENGINES.json. Regenerate with:\n\n")
	sb.WriteString("```sh\nMI_GEN_BENCH=1 go test -run TestRegenerateBenchEngines -timeout 3600s .\n```\n\n")
	sb.WriteString("| Benchmark | tree | bytecode | compiler | bytecode/tree | compiler/bytecode | compiler/tree |\n")
	sb.WriteString("|---|---|---|---|---|---|---|\n")
	for _, r := range rep.Benchmarks {
		fmt.Fprintf(&sb, "| %s | %s | %s | %s | %.2fx | %.2fx | %.2fx |\n",
			r.Name, ms(r.TreeNS), ms(r.BytecodeNS), ms(r.CompilerNS),
			r.BytecodeVsTree, r.CompilerVsBytecode, r.CompilerVsTree)
	}
	fmt.Fprintf(&sb, "| **geomean** | | | | **%.2fx** | **%.2fx** | **%.2fx** |\n",
		rep.Geomean.BytecodeVsTree, rep.Geomean.CompilerVsBytecode, rep.Geomean.CompilerVsTree)
	sb.WriteString("\nThe compiler engine is the register bytecode plus native code: whole\n")
	sb.WriteString("functions lowered to generated Go compiled as a native plugin\n")
	sb.WriteString("(`internal/bytecode/native_gen.go`), where registers are locals, branches\n")
	sb.WriteString("are gotos and statistics commit in per-block batches. A function enters\n")
	sb.WriteString("its native code at function entry; a function without native code runs\n")
	sb.WriteString("on the bytecode dispatch loop.\n\n")
	sb.WriteString("Every cell's full `vm.Stats` is asserted bit-identical across the three\n")
	sb.WriteString("engines while these numbers are measured (the generator fails otherwise),\n")
	sb.WriteString("so the speedups compare identical simulated work; exit codes, outputs,\n")
	sb.WriteString("verdicts and site profiles are covered by the differential suite in\n")
	sb.WriteString("`internal/bytecode/diff_test.go`.\n")
	return sb.String()
}
