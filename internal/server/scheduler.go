package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/spec"
)

// The scheduler is the server's batching layer: every campaign request is
// expanded into cells, and cells are submitted here. Identical cells from
// overlapping requests — the common case for a fleet of users re-running the
// standard matrix — coalesce onto one in-flight task (request batching), and
// the worker pool drains the shared queue, so N requests for the same
// campaign cost one campaign. Below the scheduler, the harness runner's
// singleflight result cache guarantees the same property per key even for
// cells that raced past the in-flight map, and serves completed cells in
// O(1) forever after.

// cell is one schedulable unit: a benchmark under a configuration and a set
// of execution axes, content-addressed by its harness.RunAxes.Key.
type cell struct {
	bench *spec.Benchmark
	cfg   harness.RunConfig
	axes  harness.RunAxes
	key   string
}

// task is the scheduled execution of one cell. Multiple requests may hold
// the same task; done is closed exactly once, after res/cached/err are set.
type task struct {
	cell cell
	done chan struct{}
	res  *harness.Result
	// cached reports that the runner served the cell from its result cache
	// without executing it (warm-up replays count as computed: they run
	// through supervision, just instantly).
	cached bool
	err    error

	// traceID is the submitting request's trace ID (the first submitter
	// wins; coalesced requests share its spans). enqueued feeds the
	// queue-wait histogram and span; tid is the telemetry track the cell's
	// whole pipeline lands on.
	traceID  string
	enqueued time.Time
	tid      int

	// refs counts requests currently holding this task; started marks worker
	// pickup; canceled marks a queued task released by its last holder before
	// pickup (the worker skips it). All three are guarded by Scheduler.mu.
	refs     int
	started  bool
	canceled bool
}

// Scheduler owns the worker pool and the in-flight dedup map.
type Scheduler struct {
	runner  *harness.Runner
	queue   chan *task
	workers int

	mu       sync.Mutex
	inflight map[string]*task

	// sendMu is held shared across queue sends and exclusively by Stop, so
	// the queue is never closed while a Submit is mid-send. closed is read
	// under sendMu (either mode).
	sendMu sync.RWMutex
	closed bool

	busy      atomic.Int64
	queued    atomic.Int64
	scheduled atomic.Uint64
	coalesced atomic.Uint64
	canceled  atomic.Uint64
	detached  atomic.Uint64

	wg sync.WaitGroup
}

// SchedStats is the scheduler's /statsz contribution.
type SchedStats struct {
	// Workers is the pool size; Busy how many are executing a cell right
	// now; Utilization is Busy/Workers.
	Workers     int     `json:"workers"`
	Busy        int     `json:"busy"`
	Utilization float64 `json:"utilization"`
	// QueueDepth is the number of submitted tasks not yet picked up.
	QueueDepth int `json:"queue_depth"`
	// Scheduled counts tasks enqueued; Coalesced counts submissions that
	// attached to an already in-flight task instead of enqueueing a new one
	// (request batching at work).
	Scheduled uint64 `json:"scheduled"`
	Coalesced uint64 `json:"coalesced"`
	// Canceled counts queued tasks whose only holders disconnected before a
	// worker picked them up; Detached counts running tasks abandoned by
	// every holder (they finish into the shared cache).
	Canceled uint64 `json:"canceled"`
	Detached uint64 `json:"detached"`
}

// NewScheduler starts a worker pool of the given width over the shared
// runner. queueCap bounds the submission queue; a full queue applies
// backpressure to submitting requests rather than growing without bound.
// Observability (metrics registry, trace, logger) is read off the runner, so
// configure the runner before constructing the scheduler.
func NewScheduler(r *harness.Runner, workers, queueCap int) *Scheduler {
	if workers < 1 {
		workers = 1
	}
	if queueCap < workers {
		queueCap = workers * 64
	}
	s := &Scheduler{
		runner:   r,
		queue:    make(chan *task, queueCap),
		workers:  workers,
		inflight: make(map[string]*task),
	}
	r.Metrics().Gauge("mi_workers", "Cell worker-pool width.").Set(int64(workers))
	s.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go s.worker()
	}
	return s
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	for t := range s.queue {
		reg := s.runner.Metrics()
		s.mu.Lock()
		if t.canceled {
			// Released by every holder while queued: Release already removed
			// it from inflight and drained the queue gauges.
			s.mu.Unlock()
			close(t.done)
			continue
		}
		t.started = true
		s.mu.Unlock()
		s.queued.Add(-1)
		reg.Gauge("mi_queue_depth", "Submitted cells not yet picked up by a worker.").Dec()
		wait := time.Since(t.enqueued)
		reg.Histogram("mi_cell_queue_wait_seconds", "Time a cell spent queued before a worker picked it up.",
			obs.DefBuckets,
			obs.L("engine", t.cell.axes.Engine.String()),
			obs.L("mechanism", mechanismLabel(t.cell.cfg))).Observe(wait.Seconds())
		s.runner.Trace().Event("queue-wait", t.tid, t.enqueued, wait,
			map[string]any{"trace_id": t.traceID, "key": t.cell.key})
		s.busy.Add(1)
		reg.Gauge("mi_workers_busy", "Workers currently executing a cell.").Inc()
		t.res, t.cached, t.err = s.runner.RunCellCtx(t.cell.bench, t.cell.cfg, t.cell.axes,
			harness.RunCtx{TraceID: t.traceID, TID: t.tid})
		s.busy.Add(-1)
		reg.Gauge("mi_workers_busy", "Workers currently executing a cell.").Dec()
		s.mu.Lock()
		// Delete only our own entry: a canceled task's key may have been
		// resubmitted as a fresh task in the meantime.
		if s.inflight[t.cell.key] == t {
			delete(s.inflight, t.cell.key)
		}
		s.mu.Unlock()
		close(t.done)
	}
}

// mechanismLabel is the metric label for a cell's instrumentation mechanism
// ("none" for uninstrumented baselines).
func mechanismLabel(cfg harness.RunConfig) string {
	if !cfg.Instrument {
		return "none"
	}
	return cfg.Core.Mechanism.String()
}

// Submit schedules one cell for the request identified by traceID,
// coalescing onto an identical in-flight task if one exists (reported by
// coalesced). The returned task's done channel closes when the cell has a
// result; the submitter holds a reference it must give back via Release.
// Submit blocks only when the queue is full (backpressure).
func (s *Scheduler) Submit(c cell, traceID string) (t *task, coalesced bool, err error) {
	s.sendMu.RLock()
	defer s.sendMu.RUnlock()
	if s.closed {
		return nil, false, fmt.Errorf("scheduler stopped")
	}
	reg := s.runner.Metrics()
	s.mu.Lock()
	if t, ok := s.inflight[c.key]; ok {
		t.refs++
		s.coalesced.Add(1)
		s.mu.Unlock()
		reg.Counter("mi_cells_coalesced_total", "Submissions that attached to an already in-flight cell.").Inc()
		return t, true, nil
	}
	t = &task{cell: c, done: make(chan struct{}), traceID: traceID, enqueued: time.Now(), refs: 1}
	t.tid = s.runner.Trace().Track(c.bench.Name + "/" + c.cfg.Label)
	s.inflight[c.key] = t
	s.mu.Unlock()
	s.scheduled.Add(1)
	s.queued.Add(1)
	reg.Counter("mi_cells_scheduled_total", "Cells enqueued on the worker pool.").Inc()
	reg.Gauge("mi_queue_depth", "Submitted cells not yet picked up by a worker.").Inc()
	s.queue <- t
	return t, false, nil
}

// Release gives back one request's references on its tasks (nil entries — a
// failed submission loop — are skipped). A queued task whose last holder
// disconnects is canceled: it leaves the queue gauge and the in-flight map
// without executing, so an abandoned request costs nothing beyond what
// already ran. A running task is never canceled — interrupting it would
// poison the shared result cache — but losing its last holder counts it as
// detached (it finishes into the cache for the next request).
func (s *Scheduler) Release(tasks []*task) {
	reg := s.runner.Metrics()
	lg := s.runner.Logger()
	for _, t := range tasks {
		if t == nil {
			continue
		}
		s.mu.Lock()
		t.refs--
		abandoned := t.refs <= 0 && !t.canceled
		select {
		case <-t.done:
			abandoned = false // already complete: nothing to cancel or detach
		default:
		}
		if !abandoned {
			s.mu.Unlock()
			continue
		}
		if t.started {
			s.detached.Add(1)
			s.mu.Unlock()
			reg.Counter("mi_cells_detached_total", "Running cells abandoned by every holder (they finish into the shared cache).").Inc()
			if lg != nil {
				lg.Info("cell detached: all requests gone, finishing into cache",
					"key", t.cell.key, "trace_id", t.traceID)
			}
			continue
		}
		t.canceled = true
		t.err = fmt.Errorf("canceled: every submitting request disconnected before execution")
		if s.inflight[t.cell.key] == t {
			delete(s.inflight, t.cell.key)
		}
		s.canceled.Add(1)
		s.mu.Unlock()
		s.queued.Add(-1)
		reg.Gauge("mi_queue_depth", "Submitted cells not yet picked up by a worker.").Dec()
		reg.Counter("mi_cells_canceled_total", "Queued cells canceled because every submitting request disconnected.").Inc()
		if lg != nil {
			lg.Warn("cell canceled: all requests gone before execution",
				"key", t.cell.key, "trace_id", t.traceID)
		}
	}
}

// Stats snapshots the scheduler counters.
func (s *Scheduler) Stats() SchedStats {
	busy := int(s.busy.Load())
	return SchedStats{
		Workers:     s.workers,
		Busy:        busy,
		Utilization: float64(busy) / float64(s.workers),
		QueueDepth:  int(s.queued.Load()),
		Scheduled:   s.scheduled.Load(),
		Coalesced:   s.coalesced.Load(),
		Canceled:    s.canceled.Load(),
		Detached:    s.detached.Load(),
	}
}

// Stop rejects further submissions, drains the queue and waits for the
// workers to finish their in-flight cells. Idempotent.
func (s *Scheduler) Stop() {
	s.sendMu.Lock()
	if s.closed {
		s.sendMu.Unlock()
		return
	}
	s.closed = true
	close(s.queue)
	s.sendMu.Unlock()
	s.wg.Wait()
}
