package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/resilience"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// PerfRecord is one executed (benchmark, configuration) cell in the JSON
// performance report: the dynamic instruction and check counts the paper's
// overhead figures are built from, plus the wall-clock time of the run.
type PerfRecord struct {
	Bench      string `json:"bench"`
	Config     string `json:"config"`
	Key        string `json:"key"`
	Instrs     uint64 `json:"instrs"`
	Cost       uint64 `json:"cost"`
	Checks     uint64 `json:"checks"`
	WideChecks uint64 `json:"wide_checks"`
	// RangeChecks counts executed hoisted range checks (one per loop entry,
	// each standing in for the per-iteration checks it replaced).
	RangeChecks     uint64  `json:"range_checks,omitempty"`
	WideRangeChecks uint64  `json:"wide_range_checks,omitempty"`
	Loads           uint64  `json:"loads"`
	Stores          uint64  `json:"stores"`
	WallMS          float64 `json:"wall_ms"`
	Err             string  `json:"err,omitempty"`
	// Status is the supervised cell status ("ok", "retried", "timeout",
	// "oom", "panic", "failed", "skipped").
	Status string `json:"status"`
	// Attempts is the cell's per-attempt history: one entry per attempt,
	// the successful one included, with the backoff slept between retries.
	Attempts []resilience.Attempt `json:"attempts,omitempty"`
	// Opt summarizes what the check optimizations did at instrumentation
	// time (nil for uninstrumented cells).
	Opt *core.OptStats `json:"opt,omitempty"`
	// Sites is the per-check-site profile (site profiling runs only): every
	// site that executed at least once, sorted by cost descending. Summing
	// Execs of kind "check" reproduces Checks exactly; likewise Wide and
	// WideChecks.
	Sites []SiteRecord `json:"sites,omitempty"`
}

// SiteRecord is one check site's static identity joined with its dynamic
// counters, ready for hot-check tables.
type SiteRecord struct {
	ID    int32  `json:"id"`
	Kind  string `json:"kind"`
	Mech  string `json:"mech"`
	Width int    `json:"width,omitempty"`
	Func  string `json:"func"`
	// Loc is the C source location the site resolves to ("file:line:col").
	Loc   string `json:"loc"`
	Execs uint64 `json:"execs"`
	Wide  uint64 `json:"wide,omitempty"`
	Cost  uint64 `json:"cost"`
	// Status is "" for live sites, "eliminated" for checks removed by the
	// dominance filter, "hoisted" for checks replaced by a preheader range
	// check; By names the site that subsumed this one.
	Status string `json:"status,omitempty"`
	By     int32  `json:"by,omitempty"`
}

// PerfReport is the -json output of mi-bench: every cell the campaign
// executed, in deterministic order.
type PerfReport struct {
	Engine string `json:"engine"`
	// SiteProfile records whether per-site counters were collected.
	SiteProfile bool         `json:"site_profile,omitempty"`
	Records     []PerfRecord `json:"records"`
	// Metrics is the campaign's metrics snapshot (only present when the
	// runner had a registry installed; mi-prof -metrics renders it). Absent
	// from per-request server reports and zeroed by Canonical, so served and
	// local reports still diff byte-identical.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
	// Tiers is the compiler tier's execution-tier attribution (mi-prof
	// -tiers renders it). The counters are process-wide and cumulative —
	// a resumed campaign re-executes fewer cells than the uninterrupted one
	// — so Canonical strips it just like Metrics.
	Tiers *telemetry.TierTable `json:"tiers,omitempty"`
}

// perfRecord builds the report record for one cell. A resumed cell replays
// its journaled record verbatim, so a resumed campaign's report is
// byte-identical to the uninterrupted one.
func perfRecord(key string, res *Result) PerfRecord {
	if res.rec != nil {
		return *res.rec
	}
	rec := PerfRecord{
		Bench:           res.Bench,
		Config:          res.Config.Label,
		Key:             key,
		Instrs:          res.Stats.Instrs,
		Cost:            res.Stats.Cost,
		Checks:          res.Stats.Checks,
		WideChecks:      res.Stats.WideChecks,
		RangeChecks:     res.Stats.RangeChecks,
		WideRangeChecks: res.Stats.WideRangeChecks,
		Loads:           res.Stats.Loads,
		Stores:          res.Stats.Stores,
		WallMS:          float64(res.Wall.Microseconds()) / 1000.0,
		Status:          res.Status.String(),
		Attempts:        res.Attempts,
	}
	if res.InstrStats != nil {
		o := res.InstrStats.Opt
		rec.Opt = &o
	}
	if res.Err != nil {
		rec.Err = res.Err.Error()
	}
	rec.Sites = siteRecords(res)
	return rec
}

// PerfReport snapshots the runner's result cache. Cells still executing (or
// never started) are absent; failed cells carry their error string.
func (r *Runner) PerfReport() *PerfReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := &PerfReport{Engine: r.axes.Engine.String(), SiteProfile: r.axes.SiteProfile, Records: []PerfRecord{}}
	PublishEngineTierMetrics(r.metrics)
	rep.Metrics = r.metrics.Snapshot()
	rep.Tiers = TierTableNow()
	for key, e := range r.cache {
		res := e.res
		if res == nil {
			continue
		}
		rep.Records = append(rep.Records, perfRecord(key, res))
	}
	sortRecords(rep.Records)
	return rep
}

// sortRecords puts report records in their deterministic order.
func sortRecords(recs []PerfRecord) {
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.Bench != b.Bench {
			return a.Bench < b.Bench
		}
		if a.Config != b.Config {
			return a.Config < b.Config
		}
		return a.Key < b.Key
	})
}

// RecordOf builds the report record for one completed cell; mi-serve streams
// one per cell as it lands.
func RecordOf(key string, res *Result) PerfRecord {
	return perfRecord(key, res)
}

// ReportForKeys builds a PerfReport covering exactly the given cache keys —
// the per-request merged report of a campaign server, where one shared cache
// serves many requests and a whole-cache snapshot would leak other requests'
// cells. Keys not in the cache (or still executing) are absent from the
// report. Ordering and field contents match PerfReport exactly, so a
// server-merged report diffs clean against a local mi-bench run over the
// same cells.
func (r *Runner) ReportForKeys(engine string, siteProfile bool, keys []string) *PerfReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := &PerfReport{Engine: engine, SiteProfile: siteProfile, Records: []PerfRecord{}}
	seen := make(map[string]bool, len(keys))
	for _, key := range keys {
		if seen[key] {
			continue
		}
		seen[key] = true
		e := r.cache[key]
		if e == nil || e.res == nil {
			continue
		}
		rep.Records = append(rep.Records, perfRecord(key, e.res))
	}
	sortRecords(rep.Records)
	return rep
}

// WriteFile writes the report to path as indented JSON, in the exact format
// mi-bench -json emits (mi-prof reads either).
func (p *PerfReport) WriteFile(path string) error {
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// WritePerfJSON writes the report to path as indented JSON.
func (r *Runner) WritePerfJSON(path string) error {
	return r.PerfReport().WriteFile(path)
}

// Canonical returns a copy of the report with every physically
// non-reproducible field (wall-clock times, backoff delays) zeroed. Two
// campaigns over the same cells — e.g. one uninterrupted, one killed and
// resumed — must produce byte-identical canonical reports.
func (p *PerfReport) Canonical() *PerfReport {
	out := *p
	out.Metrics = nil
	out.Tiers = nil
	out.Records = append([]PerfRecord(nil), p.Records...)
	for i := range out.Records {
		out.Records[i].WallMS = 0
		if len(out.Records[i].Attempts) > 0 {
			atts := append([]resilience.Attempt(nil), out.Records[i].Attempts...)
			for k := range atts {
				atts[k].WallMS, atts[k].BackoffMS = 0, 0
			}
			out.Records[i].Attempts = atts
		}
	}
	return &out
}

// InstrSummary is the JSON-safe subset of core.Stats a journaled cell
// carries: the scalar counters the figures consume. The site registries are
// process-local and are not journaled — their derived SiteRecords already
// live in the PerfRecord.
type InstrSummary struct {
	Functions       int           `json:"functions"`
	DerefTargets    int           `json:"deref_targets"`
	Opt             core.OptStats `json:"opt"`
	ChecksPlaced    int           `json:"checks_placed"`
	InvariantChecks int           `json:"invariant_checks"`
	MetadataStores  int           `json:"metadata_stores"`
	ShadowFrames    int           `json:"shadow_frames"`
	WitnessPhis     int           `json:"witness_phis"`
	WitnessSelects  int           `json:"witness_selects"`
}

// CellRecord is the checkpoint journal's payload for one completed cell: the
// exact PerfRecord the report would emit, plus everything the figures read
// off a live Result (the output for the baseline cross-check, the full VM
// stats, the instrumentation counters, the pipeline stats).
type CellRecord struct {
	Rec    PerfRecord        `json:"rec"`
	Output string            `json:"output"`
	Stats  vm.Stats          `json:"stats"`
	Instr  *InstrSummary     `json:"instr,omitempty"`
	Pipe   opt.PipelineStats `json:"pipe"`
}

// cellRecord builds the journal payload for a completed cell.
func cellRecord(key string, res *Result) *CellRecord {
	c := &CellRecord{
		Rec:    perfRecord(key, res),
		Output: res.Output,
		Stats:  res.Stats,
		Pipe:   res.PipeStats,
	}
	if s := res.InstrStats; s != nil {
		c.Instr = &InstrSummary{
			Functions:       s.Functions,
			DerefTargets:    s.DerefTargets,
			Opt:             s.Opt,
			ChecksPlaced:    s.ChecksPlaced,
			InvariantChecks: s.InvariantChecks,
			MetadataStores:  s.MetadataStores,
			ShadowFrames:    s.ShadowFrames,
			WitnessPhis:     s.WitnessPhis,
			WitnessSelects:  s.WitnessSelects,
		}
	}
	return c
}

// decodeCell parses a journaled payload back into a CellRecord; a payload
// without a record key is from an incompatible writer.
func decodeCell(raw json.RawMessage, c *CellRecord) error {
	if err := json.Unmarshal(raw, c); err != nil {
		return err
	}
	if c.Rec.Key == "" {
		return fmt.Errorf("journal cell has no record key")
	}
	return nil
}
