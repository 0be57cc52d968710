package obs

import (
	"fmt"
	"sort"
	"strings"
)

// Snapshot is a point-in-time copy of a registry, JSON-shaped for embedding
// in offline reports (mi-bench -metrics puts one in the PerfReport;
// mi-prof -metrics renders it back as a table).
type Snapshot struct {
	Metrics []MetricPoint `json:"metrics"`
}

// MetricPoint is one series of the snapshot.
type MetricPoint struct {
	Name   string            `json:"name"`
	Type   string            `json:"type"`
	Labels map[string]string `json:"labels,omitempty"`
	// Value carries counters and gauges.
	Value float64 `json:"value,omitempty"`
	// Count/Sum/Buckets carry histograms; bucket counts are cumulative,
	// matching the Prometheus exposition.
	Count   uint64        `json:"count,omitempty"`
	Sum     float64       `json:"sum,omitempty"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// BucketCount is one cumulative histogram bucket.
type BucketCount struct {
	LE string `json:"le"`
	N  uint64 `json:"n"`
}

// Snapshot copies the registry's current state in deterministic order.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	snap := &Snapshot{Metrics: []MetricPoint{}}
	for _, fv := range r.view() {
		f := fv.f
		for _, s := range fv.series {
			p := MetricPoint{Name: f.name, Type: f.typ}
			if len(s.labels) > 0 {
				p.Labels = make(map[string]string, len(s.labels))
				for _, l := range s.labels {
					p.Labels[l.Name] = l.Value
				}
			}
			switch f.typ {
			case typeCounter:
				p.Value = float64(s.c.Value())
			case typeGauge:
				p.Value = float64(s.g.Value())
			case typeHistogram:
				p.Count = s.h.Count()
				p.Sum = s.h.Sum()
				cum := uint64(0)
				for i, b := range f.bounds {
					cum += s.h.counts[i].Load()
					p.Buckets = append(p.Buckets, BucketCount{LE: formatBound(b), N: cum})
				}
				p.Buckets = append(p.Buckets, BucketCount{LE: "+Inf", N: p.Count})
			}
			snap.Metrics = append(snap.Metrics, p)
		}
	}
	return snap
}

// labelString renders a point's labels as {a="x",b="y"} in sorted order.
func (p MetricPoint) labelString() string {
	if len(p.Labels) == 0 {
		return ""
	}
	names := make([]string, 0, len(p.Labels))
	for n := range p.Labels {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s=%q", n, p.Labels[n])
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Render formats the snapshot as an aligned text table: one row per series,
// histograms summarized as count/sum/mean.
func (s *Snapshot) Render() string {
	if s == nil || len(s.Metrics) == 0 {
		return "no metrics in snapshot (collect with mi-bench -metrics)\n"
	}
	rows := make([][2]string, 0, len(s.Metrics))
	width := 0
	for _, p := range s.Metrics {
		name := p.Name + p.labelString()
		var val string
		switch p.Type {
		case typeHistogram:
			mean := 0.0
			if p.Count > 0 {
				mean = p.Sum / float64(p.Count)
			}
			val = fmt.Sprintf("count=%d sum=%.3fs mean=%.1fms", p.Count, p.Sum, 1000*mean)
		default:
			val = fmt.Sprintf("%g", p.Value)
		}
		rows = append(rows, [2]string{name, val})
		if len(name) > width {
			width = len(name)
		}
	}
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%-*s  %s\n", width, r[0], r[1])
	}
	return b.String()
}

// Find returns the first point matching name and (subset) labels, or nil —
// test and tooling convenience.
func (s *Snapshot) Find(name string, labels map[string]string) *MetricPoint {
	if s == nil {
		return nil
	}
	for i := range s.Metrics {
		p := &s.Metrics[i]
		if p.Name != name {
			continue
		}
		match := true
		for k, v := range labels {
			if p.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return p
		}
	}
	return nil
}

// SumCounter totals every series of a counter family — the cross-label
// aggregate the CI invariants compare against report cell counts.
func (s *Snapshot) SumCounter(name string) float64 {
	if s == nil {
		return 0
	}
	total := 0.0
	for _, p := range s.Metrics {
		if p.Name == name && p.Type == typeCounter {
			total += p.Value
		}
	}
	return total
}

// SumHistogramCount totals the observation counts of every series of a
// histogram family.
func (s *Snapshot) SumHistogramCount(name string) uint64 {
	if s == nil {
		return 0
	}
	var total uint64
	for _, p := range s.Metrics {
		if p.Name == name && p.Type == typeHistogram {
			total += p.Count
		}
	}
	return total
}
