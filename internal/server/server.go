// Package server turns the batch campaign harness into a long-running
// service: mi-serve accepts campaign requests (benchmark set x config matrix
// x engine) over HTTP/JSON, expands them into content-addressed cells,
// deduplicates identical cells across concurrent requests (scheduler-level
// request batching above the harness's singleflight result cache), executes
// them on a supervisor-admitted worker pool, and streams per-cell results as
// they land (NDJSON, or SSE on request), followed by a merged PerfReport
// that is byte-identical — modulo wall-clock, which mi-prof -diff strips —
// to the same campaign run locally by mi-bench.
package server

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/telemetry"
	"repro/internal/version"
)

// Config configures a campaign server.
type Config struct {
	// Workers is the cell worker-pool width (<=0 = GOMAXPROCS).
	Workers int
	// QueueCap bounds the scheduler queue; a full queue applies
	// backpressure to submitting requests (<=0 = Workers*64).
	QueueCap int
	// JournalPath, when set, checkpoints every completed cell to this
	// journal (the same JSONL format as mi-bench -journal).
	JournalPath string
	// WarmPath, when set, warms the result cache from this checkpoint
	// journal at startup: journaled cells replay instead of executing.
	WarmPath string
	// Policy supervises cells (deadline, retries, memory budget); Workers
	// also caps the cells it admits at once.
	Policy resilience.Policy
	// Logger, when non-nil, receives structured per-cell and per-request
	// records; every record carries the request's trace_id.
	Logger *slog.Logger
	// Trace, when non-nil, records request/queue/pipeline/execution spans
	// (mi-serve -trace writes it out at shutdown).
	Trace *telemetry.Trace
}

// Server is the campaign service: an HTTP handler plus the shared runner,
// scheduler, journal and metrics registry behind it.
type Server struct {
	cfg     Config
	runner  *harness.Runner
	sched   *Scheduler
	journal *resilience.Journal
	reg     *obs.Registry
	warmed  int
	start   time.Time

	draining    atomic.Bool
	reqTotal    atomic.Uint64
	reqActive   atomic.Int64
	reqRejected atomic.Uint64
}

// New builds a server: one shared harness runner (content-addressed result
// cache, supervision policy), warmed from the checkpoint journal if
// configured, and a running worker pool. The server always owns a metrics
// registry — /metricsz is first-class, not opt-in.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	r := harness.NewRunner()
	r.SetParallelism(cfg.Workers)
	r.SetResilience(cfg.Policy)
	reg := obs.NewRegistry()
	r.SetMetrics(reg)
	r.SetLogger(cfg.Logger)
	r.SetTrace(cfg.Trace)
	s := &Server{cfg: cfg, runner: r, reg: reg, start: time.Now()}
	if cfg.WarmPath != "" {
		st, err := warmUp(r, cfg.WarmPath)
		if err != nil {
			return nil, fmt.Errorf("warm-up from %s: %w", cfg.WarmPath, err)
		}
		s.warmed = st.Entries
	}
	if cfg.JournalPath != "" {
		j, err := resilience.OpenJournal(cfg.JournalPath)
		if err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
		s.journal = j
		r.SetJournal(j)
	}
	s.sched = NewScheduler(r, cfg.Workers, cfg.QueueCap)
	return s, nil
}

// Metrics returns the server's metrics registry (for tests and embedding).
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Runner exposes the shared harness runner (the signal handler cancels its
// supervisor on forced shutdown).
func (s *Server) Runner() *harness.Runner { return s.runner }

// Warmed reports how many journaled cells were armed for replay at startup.
func (s *Server) Warmed() int { return s.warmed }

// Drain puts the server into draining mode: new campaign requests are
// rejected with 503 (and /healthz turns unhealthy, so load balancers stop
// routing here) while in-flight requests run to completion.
func (s *Server) Drain() { s.draining.Store(true) }

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close stops the scheduler (draining queued cells) and closes the journal.
// Call after the HTTP server has shut down.
func (s *Server) Close() error {
	s.sched.Stop()
	return s.journal.Close()
}

// Handler returns the server's HTTP handler:
//
//	POST /campaign  submit a campaign; streams NDJSON (or SSE) cell events
//	GET  /healthz   liveness + drain state
//	GET  /statsz    cache hit rate, queue depth, statuses, utilization
//	GET  /metricsz  Prometheus text exposition of the metrics registry
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/campaign", s.handleCampaign)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/statsz", s.handleStatsz)
	mux.HandleFunc("/metricsz", s.handleMetricsz)
	return mux
}

// Event is one streamed line of a campaign response. Cell events ("cell")
// land as cells complete, in completion order; the final event ("report")
// carries the merged PerfReport over exactly the request's cells.
type Event struct {
	Type string `json:"type"`
	// Cell event fields.
	Key    string              `json:"key,omitempty"`
	Cached bool                `json:"cached,omitempty"`
	Err    string              `json:"err,omitempty"`
	Rec    *harness.PerfRecord `json:"rec,omitempty"`
	// Report event fields.
	Cells    int                 `json:"cells,omitempty"`
	Computed int                 `json:"computed,omitempty"`
	Served   int                 `json:"served_cached,omitempty"`
	Failed   int                 `json:"failed,omitempty"`
	Report   *harness.PerfReport `json:"report,omitempty"`
	// TraceID is the request's trace ID (report event only): the key that
	// joins this response to the server's structured logs and trace spans.
	TraceID string `json:"trace_id,omitempty"`
}

// Stats is the /statsz document.
type Stats struct {
	Version       string  `json:"version"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// WarmedCells is how many journaled cells were armed for replay at
	// startup — replay gates normalize throughput against it.
	WarmedCells int  `json:"warmed_cells"`
	Draining    bool `json:"draining"`
	Requests    struct {
		Total    uint64 `json:"total"`
		Active   int64  `json:"active"`
		Rejected uint64 `json:"rejected"`
	} `json:"requests"`
	Cache     CacheStats `json:"cache"`
	Scheduler SchedStats `json:"scheduler"`
	Journal   struct {
		Path     string `json:"path,omitempty"`
		Appended int    `json:"appended"`
	} `json:"journal"`
}

// Snapshot assembles the current /statsz document.
func (s *Server) Snapshot() Stats {
	var st Stats
	st.Version = version.String()
	st.UptimeSeconds = time.Since(s.start).Seconds()
	st.WarmedCells = s.warmed
	st.Draining = s.draining.Load()
	st.Requests.Total = s.reqTotal.Load()
	st.Requests.Active = s.reqActive.Load()
	st.Requests.Rejected = s.reqRejected.Load()
	st.Cache = cacheStats(s.runner, s.warmed)
	st.Scheduler = s.sched.Stats()
	st.Journal.Path = s.journal.Path()
	st.Journal.Appended = s.journal.Entries()
	return st
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"draining"}`)
		return
	}
	fmt.Fprintln(w, `{"status":"ok"}`)
}

func (s *Server) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.Snapshot())
}

func (s *Server) handleMetricsz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	harness.PublishEngineTierMetrics(s.reg)
	s.reg.WritePrometheus(w)
}

// httpError writes a one-line JSON error.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// maxRequestBody bounds a campaign request body (a name matrix, not data).
const maxRequestBody = 1 << 20

func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST a CampaignRequest to /campaign")
		return
	}
	if s.draining.Load() {
		s.reqRejected.Add(1)
		s.reg.Counter("mi_requests_total", "Campaign requests, by outcome.", obs.L("outcome", "rejected")).Inc()
		httpError(w, http.StatusServiceUnavailable, "draining: not accepting new campaigns")
		return
	}
	traceID := obs.NewTraceID()
	lg := s.cfg.Logger
	if lg != nil {
		lg = lg.With("trace_id", traceID)
	}
	outcome := "ok"
	defer func() {
		s.reg.Counter("mi_requests_total", "Campaign requests, by outcome.", obs.L("outcome", outcome)).Inc()
	}()
	var req CampaignRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, maxRequestBody)).Decode(&req); err != nil {
		outcome = "bad_request"
		httpError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	cells, axes, err := expand(req)
	if err != nil {
		outcome = "bad_request"
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.reqTotal.Add(1)
	s.reqActive.Add(1)
	s.reg.Gauge("mi_requests_active", "Campaign requests currently streaming.").Inc()
	defer func() {
		s.reqActive.Add(-1)
		s.reg.Gauge("mi_requests_active", "Campaign requests currently streaming.").Dec()
	}()
	reqTID := s.cfg.Trace.Track("req:" + traceID)
	reqSpan := s.cfg.Trace.Begin("http:/campaign", reqTID)
	reqSpan.Arg("trace_id", traceID)
	reqSpan.Arg("cells", len(cells))
	defer reqSpan.End()
	if lg != nil {
		lg.Info("campaign accepted", "cells", len(cells), "engine", axes.Engine.String())
	}

	// Submit every cell before streaming anything: overlapping requests
	// coalesce in the scheduler, and the pool starts on the whole set at
	// once instead of discovering it cell by cell. Release gives our
	// references back on every exit path: an abandoned request cancels the
	// queued cells only it was waiting for.
	tasks := make([]*task, len(cells))
	defer func() { s.sched.Release(tasks) }()
	for i, c := range cells {
		t, _, err := s.sched.Submit(c, traceID)
		if err != nil {
			outcome = "rejected"
			httpError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		tasks[i] = t
	}

	sse := r.Header.Get("Accept") == "text/event-stream"
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	flusher, _ := w.(http.Flusher)
	emit := func(ev Event) error {
		data, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if sse {
			if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data); err != nil {
				return err
			}
		} else {
			if _, err := fmt.Fprintf(w, "%s\n", data); err != nil {
				return err
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}

	// Fan-in: one waiter per task funnels completion order into done. The
	// channel is buffered to len(tasks), so waiters never block and exit
	// even when the client disconnects mid-stream.
	ctx := r.Context()
	doneCh := make(chan int, len(tasks))
	for i, t := range tasks {
		go func(i int, t *task) {
			select {
			case <-t.done:
				doneCh <- i
			case <-ctx.Done():
			}
		}(i, t)
	}

	computed, served, failed := 0, 0, 0
	for range tasks {
		var i int
		select {
		case i = <-doneCh:
		case <-ctx.Done():
			// Client gone. The deferred Release cancels queued cells only this
			// request was waiting for; cells already running (or shared with
			// other requests) finish into the shared cache.
			outcome = "aborted"
			if lg != nil {
				lg.Warn("campaign aborted: client disconnected mid-stream",
					"delivered", computed+served, "cells", len(tasks))
			}
			return
		}
		t := tasks[i]
		ev := Event{Type: "cell", Key: t.cell.key, Cached: t.cached}
		switch {
		case t.err != nil:
			// Infrastructure failure (e.g. the benchmark does not compile):
			// there is no result record, only a cause.
			ev.Err = t.err.Error()
			failed++
		default:
			rec := harness.RecordOf(t.cell.key, t.res)
			ev.Rec = &rec
			if t.res.Err != nil {
				failed++
			}
		}
		if t.cached {
			served++
		} else {
			computed++
		}
		if err := emit(ev); err != nil {
			outcome = "aborted"
			if lg != nil {
				lg.Warn("campaign aborted: write failed mid-stream", "err", err.Error())
			}
			return
		}
	}

	report := s.runner.ReportForKeys(axes.Engine.String(), axes.SiteProfile, keysOf(cells))
	if lg != nil {
		lg.Info("campaign complete", "cells", len(cells), "computed", computed, "served_cached", served, "failed", failed)
	}
	_ = emit(Event{
		Type:     "report",
		Cells:    len(cells),
		Computed: computed,
		Served:   served,
		Failed:   failed,
		Report:   report,
		TraceID:  traceID,
	})
}
