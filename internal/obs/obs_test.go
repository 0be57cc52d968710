package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("mi_test_total", "test counter", L("kind", "a"))
	c.Inc()
	c.Add(2)
	if c.Value() != 3 {
		t.Errorf("counter = %d, want 3", c.Value())
	}
	// Same name+labels returns the same series.
	if again := r.Counter("mi_test_total", "test counter", L("kind", "a")); again.Value() != 3 {
		t.Errorf("re-lookup = %d, want 3", again.Value())
	}
	// Different labels are a distinct series.
	if other := r.Counter("mi_test_total", "test counter", L("kind", "b")); other.Value() != 0 {
		t.Errorf("other series = %d, want 0", other.Value())
	}

	g := r.Gauge("mi_test_depth", "test gauge")
	g.Set(5)
	g.Dec()
	g.Add(-2)
	if g.Value() != 2 {
		t.Errorf("gauge = %d, want 2", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("mi_test_seconds", "test histogram", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Errorf("count = %d, want 4", h.Count())
	}
	if got := h.Sum(); got < 5.55 || got > 5.56 {
		t.Errorf("sum = %g, want 5.555", got)
	}
	var b bytes.Buffer
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`mi_test_seconds_bucket{le="0.01"} 1`,
		`mi_test_seconds_bucket{le="0.1"} 2`,
		`mi_test_seconds_bucket{le="1"} 3`,
		`mi_test_seconds_bucket{le="+Inf"} 4`,
		`mi_test_seconds_count 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestHistogramBoundaryIsInclusive pins le semantics: an observation equal
// to a bound lands in that bound's bucket, as in Prometheus.
func TestHistogramBoundaryIsInclusive(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("mi_edge_seconds", "edge", []float64{1, 2})
	h.Observe(1)
	var b bytes.Buffer
	r.WritePrometheus(&b)
	if !strings.Contains(b.String(), `mi_edge_seconds_bucket{le="1"} 1`) {
		t.Errorf("observation at bound not counted in its bucket:\n%s", b.String())
	}
}

func TestPrometheusDeterministicAndEscaped(t *testing.T) {
	r := NewRegistry()
	r.Counter("mi_b_total", "b", L("x", "1")).Inc()
	r.Counter("mi_a_total", "a", L("engine", "tree"), L("status", `quo"ted`)).Inc()
	r.Gauge("mi_a_gauge", "g").Set(7)

	var first, second bytes.Buffer
	r.WritePrometheus(&first)
	r.WritePrometheus(&second)
	if first.String() != second.String() {
		t.Error("exposition is not deterministic across scrapes")
	}
	out := first.String()
	if !strings.Contains(out, `mi_a_total{engine="tree",status="quo\"ted"} 1`) {
		t.Errorf("label escaping/order wrong:\n%s", out)
	}
	if strings.Index(out, "mi_a_gauge") > strings.Index(out, "mi_b_total") {
		t.Errorf("families not sorted by name:\n%s", out)
	}
	for _, want := range []string{"# HELP mi_a_total a", "# TYPE mi_a_total counter", "# TYPE mi_a_gauge gauge"} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestMismatchedRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("mi_x_total", "x")
	for name, re := range map[string]func(){
		"type": func() { r.Gauge("mi_x_total", "x") },
		"labels": func() {
			r.Counter("mi_x_total", "x", L("new", "label"))
		},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("mismatched registration did not panic")
				}
			}()
			re()
		})
	}
}

func TestNilRegistryIsNeutral(t *testing.T) {
	var r *Registry
	c := r.Counter("mi_nil_total", "nil")
	g := r.Gauge("mi_nil_gauge", "nil")
	h := r.Histogram("mi_nil_seconds", "nil", nil)
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Dec()
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Error("nil instruments must no-op")
	}
	var b bytes.Buffer
	r.WritePrometheus(&b)
	if b.Len() != 0 {
		t.Error("nil registry wrote exposition")
	}
	if r.Snapshot() != nil {
		t.Error("nil registry snapshot != nil")
	}
}

func TestSnapshotRoundTripAndAggregates(t *testing.T) {
	r := NewRegistry()
	r.Counter("mi_cells_total", "cells", L("status", "ok")).Add(10)
	r.Counter("mi_cells_total", "cells", L("status", "failed")).Add(2)
	r.Histogram("mi_exec_seconds", "exec", []float64{1}, L("engine", "tree")).Observe(0.5)
	r.Histogram("mi_exec_seconds", "exec", []float64{1}, L("engine", "bytecode")).Observe(2)

	snap := r.Snapshot()
	if got := snap.SumCounter("mi_cells_total"); got != 12 {
		t.Errorf("SumCounter = %g, want 12", got)
	}
	if got := snap.SumHistogramCount("mi_exec_seconds"); got != 2 {
		t.Errorf("SumHistogramCount = %d, want 2", got)
	}
	p := snap.Find("mi_cells_total", map[string]string{"status": "ok"})
	if p == nil || p.Value != 10 {
		t.Fatalf("Find(ok) = %+v, want value 10", p)
	}

	// JSON round trip preserves every point.
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.SumCounter("mi_cells_total") != 12 || back.SumHistogramCount("mi_exec_seconds") != 2 {
		t.Error("snapshot did not survive the JSON round trip")
	}
	if !strings.Contains(back.Render(), "mi_cells_total") {
		t.Error("rendered table missing series")
	}
}

func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("mi_conc_total", "c", L("w", "x")).Inc()
				r.Histogram("mi_conc_seconds", "h", nil).Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("mi_conc_total", "c", L("w", "x")).Value(); got != 8000 {
		t.Errorf("concurrent counter = %d, want 8000", got)
	}
	if got := r.Histogram("mi_conc_seconds", "h", nil).Count(); got != 8000 {
		t.Errorf("concurrent histogram count = %d, want 8000", got)
	}
}

// TestScrapeWhileRegistering scrapes the registry (both exposition paths)
// while other goroutines keep registering new label sets in the same
// families. Under -race it catches a scrape that reads a family's series map
// after releasing the registry lock.
func TestScrapeWhileRegistering(t *testing.T) {
	r := NewRegistry()
	r.Counter("mi_scrape_total", "c", L("n", "seed")).Inc()
	r.Histogram("mi_scrape_seconds", "h", nil, L("n", "seed")).Observe(0.001)
	const writers, perWriter = 2, 300
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				n := L("n", fmt.Sprintf("%d-%d", w, j))
				r.Counter("mi_scrape_total", "c", n).Inc()
				r.Histogram("mi_scrape_seconds", "h", nil, n).Observe(0.001)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for scraping := true; scraping; {
		select {
		case <-done:
			scraping = false
		default:
		}
		var buf bytes.Buffer
		r.WritePrometheus(&buf)
		_ = r.Snapshot()
	}
	want := float64(writers*perWriter + 1)
	if got := r.Snapshot().SumCounter("mi_scrape_total"); got != want {
		t.Errorf("counter series sum = %v, want %v", got, want)
	}
}

func TestTraceIDs(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		id := NewTraceID()
		if len(id) != 16 {
			t.Fatalf("trace id %q: want 16 hex chars", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %q", id)
		}
		seen[id] = true
	}
}

func TestLoggerConstruction(t *testing.T) {
	var b bytes.Buffer
	l, err := NewLogger(&b, "debug", "json")
	if err != nil {
		t.Fatal(err)
	}
	l.Debug("hello", "trace_id", "abc123")
	var rec map[string]any
	if err := json.Unmarshal(b.Bytes(), &rec); err != nil {
		t.Fatalf("json log record: %v (%q)", err, b.String())
	}
	if rec["msg"] != "hello" || rec["trace_id"] != "abc123" {
		t.Errorf("record = %v", rec)
	}

	b.Reset()
	l, err = NewLogger(&b, "warn", "text")
	if err != nil {
		t.Fatal(err)
	}
	l.Info("dropped")
	l.Warn("kept")
	if out := b.String(); strings.Contains(out, "dropped") || !strings.Contains(out, "kept") {
		t.Errorf("level filtering wrong: %q", out)
	}

	if _, err := NewLogger(&b, "nope", "text"); err == nil {
		t.Error("bad level accepted")
	}
	if _, err := NewLogger(&b, "info", "xml"); err == nil {
		t.Error("bad format accepted")
	}
}
