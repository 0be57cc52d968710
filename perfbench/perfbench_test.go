package main

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/spec"
	"repro/internal/vm"
)

var update = flag.Bool("update", false, "rewrite expect.json from the tree interpreter")

// TestGeneratorDeterminism: the same seed gives the same op sequence, and a
// different seed a different order, for every workload's generator.
func TestGeneratorDeterminism(t *testing.T) {
	pool := matrix(benchNames(), namedConfigs)
	gens := map[string]func(seed int64) any{
		"campaign-warm": func(seed int64) any { return [][]cellSpec{warmPass(seed, 0), warmPass(seed, 1)} },
		"campaign-cold": func(seed int64) any { return coldOrder(seed, pool) },
		"serve-mix":     func(seed int64) any { return serveTraffic.schedule(seed, 20*time.Second) },
	}
	for name, gen := range gens {
		if !reflect.DeepEqual(gen(1), gen(1)) {
			t.Errorf("%s: seed 1 gave two different sequences", name)
		}
		if reflect.DeepEqual(gen(1), gen(2)) {
			t.Errorf("%s: seeds 1 and 2 gave the same sequence", name)
		}
	}
	if w := warmPass(1, 0); reflect.DeepEqual(w, warmPass(1, 1)) {
		t.Error("campaign-warm: two passes of one seed share a benchmark order")
	}
}

// TestServeSchedule checks the serve-mix traffic shape: a fixed number of
// arrivals inside the window, in order, and misses that never repeat a cell
// or hit the popular set.
func TestServeSchedule(t *testing.T) {
	window := 20 * time.Second
	arr := serveTraffic.schedule(7, window)
	if want := int(serveTraffic.Rate * window.Seconds()); len(arr) != want {
		t.Fatalf("%d arrivals, want %d", len(arr), want)
	}
	seen := map[cellSpec]bool{}
	misses, plain := 0, 0
	for i, a := range arr {
		if a.Due < 0 || a.Due >= window || (i > 0 && a.Due < arr[i-1].Due) {
			t.Fatalf("arrival %d due at %v: out of order or outside the window", i, a.Due)
		}
		if !a.Miss {
			if !serveTraffic.isPopular(a.Cell) {
				t.Errorf("hit %v is not in the popular set", a.Cell)
			}
			continue
		}
		misses++
		if !a.Cell.SiteProfile && !a.Cell.Forensics {
			plain++
		}
		if seen[a.Cell] || serveTraffic.isPopular(a.Cell) {
			t.Errorf("miss %v repeats a cell", a.Cell)
		}
		seen[a.Cell] = true
	}
	if want := int(serveTraffic.MissShare * float64(len(arr))); misses != want || plain != want/2 {
		t.Errorf("%d misses, %d of them plain; want %d and %d", misses, plain, want, want/2)
	}
}

// TestExpectedOutputs pins expect.json to the tree interpreter's output of
// every uninstrumented program; -update rewrites it.
func TestExpectedOutputs(t *testing.T) {
	got := map[string]string{}
	for _, b := range spec.All() {
		m, err := b.Compile()
		if err != nil {
			t.Fatal(err)
		}
		machine, err := vm.New(m, vm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		code, err := machine.Run()
		if err != nil || code != 0 {
			t.Fatalf("%s: exit %d, %v", b.Name, code, err)
		}
		got[b.Name] = machine.Output()
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("expect.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if !reflect.DeepEqual(got, expected) {
		t.Errorf("expect.json is stale: the tree interpreter now prints %v", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if q := quantile(xs, 0.5); q != 2.5 {
		t.Errorf("median %v, want 2.5", q)
	}
	if q := quantile(xs, 1); q != 4 {
		t.Errorf("max %v, want 4", q)
	}
	h := promHist{le: map[float64]float64{0.1: 2, 0.2: 6, 1: 8}, count: 8}
	if q := h.quantile(0.5); q < 0.149 || q > 0.151 {
		t.Errorf("histogram median %v, want 0.15", q)
	}
}
