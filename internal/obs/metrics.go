// Package obs is the repo's dependency-free observability plane: a metrics
// registry (atomic counters, gauges and fixed-bucket histograms with label
// support, exposed in Prometheus text format and snapshottable into JSON
// reports), trace-ID minting for end-to-end request tracing, and log/slog
// construction for structured logging. Every type is nil-safe in the same
// way telemetry.Trace is: a nil *Registry hands out nil instruments whose
// methods are no-ops, so instrumented code paths need no conditionals and
// the default (observability off) path stays neutral.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value pair attached to a metric series.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Counter is a monotonically increasing integer. The zero value is ready to
// use; a nil *Counter no-ops.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable integer (queue depths, busy workers). A nil *Gauge
// no-ops.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adds delta (negative to decrement).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefBuckets are the default latency histogram buckets, in seconds: 1ms to
// 10s, roughly exponential — cell executions span from sub-millisecond cache
// hits to multi-second instrumented runs.
var DefBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// Histogram is a fixed-bucket distribution. Buckets are cumulative upper
// bounds (an implicit +Inf bucket catches the rest). A nil *Histogram
// no-ops.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, updated by CAS
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns how many values were observed.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// family is one named metric: a type, a help string, a label schema, and the
// series instantiated under it.
type family struct {
	name       string
	help       string
	typ        string
	labelNames []string
	bounds     []float64 // histograms only
	series     map[string]*series
}

type series struct {
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds metric families and hands out their series. Safe for
// concurrent use; a nil *Registry hands out nil instruments, so callers
// instrument unconditionally and pay nothing when observability is off.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// seriesKey is the canonical identity of a label set within a family.
func seriesKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.Name + "=" + l.Value
	}
	sort.Strings(parts)
	return strings.Join(parts, "\xff")
}

// labelSchema extracts the sorted label names of a set.
func labelSchema(labels []Label) []string {
	names := make([]string, len(labels))
	for i, l := range labels {
		names[i] = l.Name
	}
	sort.Strings(names)
	return names
}

// lookup finds or creates the family and series for one instrument request.
// Mismatched reuse of a name (different type or label schema) is a
// programming error and panics with the conflict spelled out.
func (r *Registry) lookup(name, help, typ string, bounds []float64, labels []Label) *series {
	schema := labelSchema(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{
			name: name, help: help, typ: typ,
			labelNames: schema, bounds: bounds,
			series: make(map[string]*series),
		}
		r.families[name] = f
	} else {
		if f.typ != typ {
			panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.typ, typ))
		}
		if strings.Join(f.labelNames, ",") != strings.Join(schema, ",") {
			panic(fmt.Sprintf("obs: metric %q has labels %v, requested with %v", name, f.labelNames, schema))
		}
	}
	key := seriesKey(labels)
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: append([]Label(nil), labels...)}
		switch typ {
		case typeCounter:
			s.c = &Counter{}
		case typeGauge:
			s.g = &Gauge{}
		case typeHistogram:
			s.h = &Histogram{bounds: f.bounds, counts: make([]atomic.Uint64, len(f.bounds)+1)}
		}
		f.series[key] = s
	}
	return s
}

// Counter returns (creating on first use) the counter series under name with
// the given labels.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, typeCounter, nil, labels).c
}

// Gauge returns (creating on first use) the gauge series under name with the
// given labels.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, typeGauge, nil, labels).g
}

// Histogram returns (creating on first use) the histogram series under name
// with the given labels. buckets (nil = DefBuckets) must be ascending; the
// first registration of a name fixes its buckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefBuckets
	}
	return r.lookup(name, help, typeHistogram, buckets, labels).h
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// renderLabels renders a label set ({a="x",b="y"}), with extra appended last
// (the histogram le bound). Labels render in sorted-name order so the
// exposition is deterministic.
func renderLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	parts := make([]string, len(all))
	for i, l := range all {
		parts[i] = l.Name + `="` + escapeLabel(l.Value) + `"`
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// formatBound renders a bucket upper bound the way Prometheus expects
// (trailing zeros trimmed, "+Inf" for the overflow bucket).
func formatBound(b float64) string {
	if math.IsInf(b, +1) {
		return "+Inf"
	}
	return fmt.Sprintf("%g", b)
}

// WritePrometheus writes every family in Prometheus text exposition format,
// families sorted by name and series by label set, so scrapes are
// deterministic and diffable.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	for _, fv := range r.view() {
		f := fv.f
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		f.writeSeries(w, fv.series)
	}
}

// familyView is one family with its series in deterministic order, copied
// under the registry lock: lookup adds series to a family's map under that
// lock, so the map must not be read once it is released.
type familyView struct {
	f      *family
	series []*series
}

// view snapshots every family, sorted by name, and its series, sorted by
// label set. Series values are read later through their atomics.
func (r *Registry) view() []familyView {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]familyView, len(names))
	for i, n := range names {
		f := r.families[n]
		out[i] = familyView{f: f, series: f.sortedSeries()}
	}
	return out
}

// sortedSeries lists a family's series in deterministic order. The caller
// holds the registry lock.
func (f *family) sortedSeries() []*series {
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*series, len(keys))
	for i, k := range keys {
		out[i] = f.series[k]
	}
	return out
}

func (f *family) writeSeries(w io.Writer, series []*series) {
	for _, s := range series {
		switch f.typ {
		case typeCounter:
			fmt.Fprintf(w, "%s%s %d\n", f.name, renderLabels(s.labels), s.c.Value())
		case typeGauge:
			fmt.Fprintf(w, "%s%s %d\n", f.name, renderLabels(s.labels), s.g.Value())
		case typeHistogram:
			cum := uint64(0)
			for i, b := range f.bounds {
				cum += s.h.counts[i].Load()
				fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, renderLabels(s.labels, L("le", formatBound(b))), cum)
			}
			fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, renderLabels(s.labels, L("le", "+Inf")), s.h.Count())
			fmt.Fprintf(w, "%s_sum%s %g\n", f.name, renderLabels(s.labels), s.h.Sum())
			fmt.Fprintf(w, "%s_count%s %d\n", f.name, renderLabels(s.labels), s.h.Count())
		}
	}
}
