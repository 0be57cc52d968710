package harness

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/spec"
)

var updatePipelineGolden = flag.Bool("update", false, "rewrite testdata/pipeline.golden")

// goldenConfigs lists the configurations the pipeline golden pins: every
// named configuration, then SoftBound and Low-Fat at each extension point.
func goldenConfigs(t *testing.T) (names []string, cfgs []RunConfig) {
	for _, name := range ConfigNames() {
		cfg, err := ConfigByName(name)
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
		cfgs = append(cfgs, cfg)
	}
	for _, mech := range []core.Mech{core.MechSoftBound, core.MechLowFat} {
		for _, cfg := range epConfigs(mech) {
			names = append(names, mech.String()+"@"+cfg.Label)
			cfgs = append(cfgs, cfg)
		}
	}
	return names, cfgs
}

// TestPipelineGolden pins the optimized module of every benchmark under
// every golden configuration: the sha256 of its text, the pipeline
// statistics and the instrumentation counts. A change to the optimizer that
// is meant to be output-neutral must leave testdata/pipeline.golden
// untouched; regenerate it with -update only for an intended output change.
func TestPipelineGolden(t *testing.T) {
	names, cfgs := goldenConfigs(t)
	r := NewRunner()
	var sb strings.Builder
	for _, b := range spec.All() {
		for i, cfg := range cfgs {
			res := &Result{}
			m, err := r.compile(b, cfg, res, nil, 0, nil)
			if err != nil {
				t.Fatalf("%s/%s: %v", b.Name, names[i], err)
			}
			fmt.Fprintf(&sb, "%s %s %x pipe=%+v instr={%s}\n", b.Name, names[i],
				sha256.Sum256([]byte(ir.FormatModule(m))), res.PipeStats, instrCounts(res.InstrStats))
		}
	}
	got := sb.String()
	path := filepath.Join("testdata", "pipeline.golden")
	if *updatePipelineGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%d golden cells, want %d (re-run with -update if intended)", len(gl)-1, len(wl)-1)
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("cell diverges from %s (re-run with -update if intended):\n got  %s\n want %s", path, gl[i], wl[i])
		}
	}
}
