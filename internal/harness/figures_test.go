package harness

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/opt"
	"repro/internal/spec"
)

// TestTable2Shape verifies the qualitative structure of Table 2: which cells
// are zero, which are large, and roughly how large — the reproduction
// criteria for the unsafe-dereference analysis (Section 4.6).
func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	r := shapeRunner()
	rows, err := r.Table2()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Table2Row{}
	for _, row := range rows {
		byName[row.Bench] = row
	}

	type expect struct {
		bench          string
		sbLo, sbHi     float64
		lfLo, lfHi     float64
		sizeZeroArrays bool
	}
	// Paper values: SB 164gzip 61.71, 197parser 0.27, 300twolf 0.37,
	// 445gobmk 0.66; LF 177mesa 1.57, 188ammp 0.24, 197parser 7.14,
	// 300twolf 2.08, 429mcf ~54.
	expects := []expect{
		{"164gzip", 40, 80, 0, 0, true},
		{"177mesa", 0, 0, 0.5, 4, false},
		{"179art", 0, 0, 0, 0, false},
		{"183equake", 0, 0, 0, 0, false},
		{"186crafty", 0, 0, 0, 0, false},
		{"188ammp", 0, 0, 0.05, 1, false},
		{"197parser", 0.05, 1, 3, 15, false},
		{"300twolf", 0.05, 1, 0.8, 5, false},
		{"429mcf", 0, 0, 35, 65, false},
		{"433milc", 0, 0, 0, 0, true},
		{"445gobmk", 0.1, 2, 0, 0, true},
		{"462libquantum", 0, 0, 0, 0, false},
		{"470lbm", 0, 0, 0, 0, false},
	}
	for _, e := range expects {
		row, ok := byName[e.bench]
		if !ok {
			t.Errorf("%s: missing row", e.bench)
			continue
		}
		if row.SB < e.sbLo || row.SB > e.sbHi {
			t.Errorf("%s: SB %.2f%% outside [%.2f, %.2f]", e.bench, row.SB, e.sbLo, e.sbHi)
		}
		if row.LF < e.lfLo || row.LF > e.lfHi {
			t.Errorf("%s: LF %.2f%% outside [%.2f, %.2f]", e.bench, row.LF, e.lfLo, e.lfHi)
		}
		if row.SizeZeroArrays != e.sizeZeroArrays {
			t.Errorf("%s: size-zero marking = %t, want %t", e.bench, row.SizeZeroArrays, e.sizeZeroArrays)
		}
	}
	// 433milc declares a sizeless array but never touches it: zero wide
	// checks for SB despite the declaration (the paper singles this out).
	if milc := byName["433milc"]; !milc.SBZero {
		t.Error("433milc: expected zero wide SB checks (array declared but unused)")
	}
	// 456hmmer/458sjeng: nonzero but tiny (prints as 0.00/0.02).
	for _, name := range []string{"456hmmer", "458sjeng"} {
		row := byName[name]
		if row.SBZero {
			t.Errorf("%s: expected a nonzero (but tiny) SB wide count", name)
		}
		if row.SB > 0.2 {
			t.Errorf("%s: SB %.2f%% too large to round toward 0.00", name, row.SB)
		}
	}

	out := RenderTable2(rows)
	for _, want := range []string{"164gzip [sz]", "benchmark", "433milc [sz]"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q", want)
		}
	}
}

// TestFigure9Shape verifies the headline claims: comparable geomeans, with
// SoftBound winning on crafty-like and Low-Fat on equake-like benchmarks
// (Section 5.2).
func TestFigure9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	r := shapeRunner()
	fig, err := r.Figure9()
	if err != nil {
		t.Fatal(err)
	}
	sb, lf := fig.Series[0], fig.Series[1]
	idx := map[string]int{}
	for i, b := range fig.Benchmarks {
		idx[b] = i
	}
	gm := func(s Series) float64 { return GeoMean(s.Values) }
	if gm(sb) < 1.3 || gm(sb) > 2.2 || gm(lf) < 1.3 || gm(lf) > 2.2 {
		t.Errorf("geomeans out of plausible range: SB %.2f LF %.2f", gm(sb), gm(lf))
	}
	if d := gm(lf) - gm(sb); d < -0.15 || d > 0.25 {
		t.Errorf("mechanism gap %.2f too large (paper: 1.74 vs 1.77)", d)
	}
	// equake: SoftBound pays trie lookups in the hot loop.
	if sb.Values[idx["183equake"]] <= lf.Values[idx["183equake"]] {
		t.Error("equake: SoftBound should be slower (trie lookups in the hot loop)")
	}
	// crafty: the cheaper SoftBound check wins.
	if sb.Values[idx["186crafty"]] >= lf.Values[idx["186crafty"]] {
		t.Error("crafty: SoftBound should be faster (cheaper check)")
	}
	for i, b := range fig.Benchmarks {
		if sb.Values[i] < 1 || lf.Values[i] < 1 {
			t.Errorf("%s: overhead below 1x", b)
		}
	}
}

// TestExtensionPointShape verifies the Section 5.5 finding: early
// instrumentation is measurably slower than the late extension points, and
// the two late points agree.
func TestExtensionPointShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	r := shapeRunner()
	fig, err := r.Figure12()
	if err != nil {
		t.Fatal(err)
	}
	early := GeoMean(fig.Series[0].Values)
	late := GeoMean(fig.Series[1].Values)
	vect := GeoMean(fig.Series[2].Values)
	if early <= late*1.05 {
		t.Errorf("early EP %.2f not clearly slower than late %.2f", early, late)
	}
	if diff := vect - late; diff > 0.02 || diff < -0.02 {
		t.Errorf("ScalarOptimizerLate %.2f and VectorizerStart %.2f should agree", late, vect)
	}
}

// TestMetadataConfiguration verifies the Figure 10/11 structure: metadata
// cost is a (often small) fraction of the full overhead, and unoptimized is
// at least as slow as optimized.
func TestMetadataConfiguration(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	r := NewRunner()
	for _, mech := range []core.Mech{core.MechSoftBound, core.MechLowFat} {
		cfgs := modeConfigs(mech)
		for _, bname := range []string{"183equake", "197parser", "464h264ref"} {
			b := spec.ByName(bname)
			var ov [3]float64
			for i, cfg := range cfgs {
				o, _, err := r.Overhead(b, cfg)
				if err != nil {
					t.Fatal(err)
				}
				ov[i] = o
			}
			optimized, unoptimized, meta := ov[0], ov[1], ov[2]
			if meta > unoptimized+0.01 {
				t.Errorf("%s/%s: metadata-only %.2f exceeds full %.2f", mech, bname, meta, unoptimized)
			}
			if optimized > unoptimized+0.02 {
				t.Errorf("%s/%s: optimized %.2f slower than unoptimized %.2f", mech, bname, optimized, unoptimized)
			}
			if meta < 1.0 {
				t.Errorf("%s/%s: metadata-only %.2f below baseline", mech, bname, meta)
			}
		}
	}
}

// TestEliminationStats verifies the Section 5.3 claims: a significant
// fraction of checks is eliminated by dominance, with minor runtime effect.
func TestEliminationStats(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	r := shapeRunner()
	rows, err := r.EliminationStats(core.MechSoftBound)
	if err != nil {
		t.Fatal(err)
	}
	var anySignificant bool
	for _, row := range rows {
		if row.StaticChecks == 0 {
			t.Errorf("%s: no check targets", row.Bench)
			continue
		}
		if row.Percent() > 15 {
			anySignificant = true
		}
		if row.RuntimeDelta < -0.08 {
			t.Errorf("%s: dominance opt made things slower by %.3f", row.Bench, -row.RuntimeDelta)
		}
		// "Minor runtime impact": the compiler removes duplicates anyway.
		if row.RuntimeDelta > 0.35 {
			t.Errorf("%s: runtime delta %.2f too large for 'minor impact'", row.Bench, row.RuntimeDelta)
		}
	}
	if !anySignificant {
		t.Error("no benchmark eliminates a significant check fraction (paper: 8%-50%)")
	}
	out := RenderElimination(rows)
	if !strings.Contains(out, "dominance-based check elimination") {
		t.Error("rendering broken")
	}
}

// TestRunnerCaching ensures repeated runs reuse cached results.
func TestRunnerCaching(t *testing.T) {
	r := NewRunner()
	b := spec.ByName("462libquantum")
	res1, err := r.Run(b, BaselineConfig())
	if err != nil {
		t.Fatal(err)
	}
	res2, err := r.Run(b, BaselineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res1 != res2 {
		t.Error("cache did not return the same result object")
	}
}

// TestOutputEquivalenceAcrossEPs: instrumenting at any extension point must
// not change program behaviour.
func TestOutputEquivalenceAcrossEPs(t *testing.T) {
	r := NewRunner()
	b := spec.ByName("462libquantum")
	base, err := r.Run(b, BaselineConfig())
	if err != nil || base.Err != nil {
		t.Fatalf("baseline: %v %v", err, base.Err)
	}
	for _, ep := range []opt.ExtPoint{opt.EPModuleOptimizerEarly, opt.EPScalarOptimizerLate, opt.EPVectorizerStart} {
		cfg := PaperConfig(core.MechLowFat)
		cfg.EP = ep
		cfg.Label = ep.String()
		res, err := r.Run(b, cfg)
		if err != nil || res.Err != nil {
			t.Fatalf("%s: %v %v", ep, err, res.Err)
		}
		if res.Output != base.Output {
			t.Errorf("%s changed output", ep)
		}
	}
}
