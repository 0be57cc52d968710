// Command mi-test runs the artifact-style functional suite (Appendix A.5 of
// the paper): hundreds of generated C programs with and without spatial
// safety violations, each executed under SoftBound and Low-Fat Pointers and
// validated against the mechanisms' documented guarantees, followed by a
// small fixed-seed fault-injection campaign checking the detection matrix
// and the paper's predicted blind spots.
//
// Usage:
//
//	mi-test          # summary matrix
//	mi-test -v       # per-case outcomes
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/functest"
	"repro/internal/spec"
	"repro/internal/version"
)

func main() {
	verbose := flag.Bool("v", false, "print every case")
	engineName := flag.String("engine", "bytecode", "execution engine: tree (reference interpreter), bytecode, or compiler (bytecode plus native code)")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Printf("mi-test %s\n", version.String())
		return
	}

	engine, err := bytecode.ParseEngine(*engineName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mi-test: %v\n", err)
		os.Exit(2)
	}

	cases := functest.Generate()
	mechs := []core.Mech{core.MechSoftBound, core.MechLowFat}

	type cell struct{ pass, fail int }
	matrix := map[string]*cell{}
	key := func(mech core.Mech, kind string) string { return mech.String() + "/" + kind }

	failures := 0
	for i := range cases {
		c := &cases[i]
		for _, mech := range mechs {
			out, err := functest.RunEngine(c, mech, engine)
			k := key(mech, c.Kind.String())
			if matrix[k] == nil {
				matrix[k] = &cell{}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "mi-test: %s under %s: %v\n", c.Name(), mech, err)
				matrix[k].fail++
				failures++
				continue
			}
			want := c.ExpectDetected(mech)
			ok := out.Detected == want
			if ok {
				matrix[k].pass++
			} else {
				matrix[k].fail++
				failures++
			}
			if *verbose || !ok {
				status := "ok"
				if !ok {
					status = "MISMATCH"
				}
				fmt.Printf("%-40s %-10s detected=%-5t expected=%-5t %s\n",
					c.Name(), mech, out.Detected, want, status)
			}
		}
	}

	fmt.Printf("\n%-22s%8s%8s\n", "mechanism/storage", "pass", "fail")
	for _, mech := range mechs {
		for _, kind := range []string{"heap", "stack", "global"} {
			c := matrix[key(mech, kind)]
			fmt.Printf("%-22s%8d%8d\n", key(mech, kind), c.pass, c.fail)
		}
	}
	fmt.Printf("\n%d cases x %d mechanisms, %d mismatches\n", len(cases), len(mechs), failures)

	failures += faultMatrix(engine)
	if failures > 0 {
		os.Exit(1)
	}
}

// faultMatrix runs a small fixed-seed fault-injection campaign and checks
// the detection matrix against the paper's security analysis, including
// both predicted blind spots. It returns the number of failures.
func faultMatrix(engine bytecode.EngineKind) int {
	var benches []*spec.Benchmark
	for _, name := range []string{"462libquantum", "300twolf"} {
		if b := spec.ByName(name); b != nil {
			benches = append(benches, b)
		}
	}
	rep := faultinject.Run(faultinject.Options{Seed: 1, Benches: benches, Engine: engine})
	fmt.Printf("\nfault-injection matrix (seed %d):\n%s\n", rep.Seed, rep.Render())

	attributed, attributable := 0, 0
	for _, vr := range rep.Results {
		if vr.Outcome == faultinject.OutDetected && !vr.Fault.Benign && vr.ExpectedAlloc != 0 {
			attributable++
			if vr.Attributed {
				attributed++
			}
		}
	}
	fmt.Printf("attribution: %d/%d detected faults named their allocation site in the violation report\n",
		attributed, attributable)

	failures := len(rep.Failures) + len(rep.Unexpected())
	sb, lf := core.MechSoftBound, core.MechLowFat
	if c := rep.Cell(lf, faultinject.GEPPadding); c.Missed == 0 {
		fmt.Println("FAIL: low-fat in-padding blind spot not reproduced")
		failures++
	}
	if c := rep.Cell(sb, faultinject.ObfStaleUpdate); c.Missed == 0 {
		fmt.Println("FAIL: softbound stale-metadata blind spot not reproduced")
		failures++
	}
	if failures == 0 {
		fmt.Println("fault matrix: all outcomes match the paper's security analysis")
	}
	return failures
}
