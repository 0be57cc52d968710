package resilience

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/vm"
)

// Policy configures cell supervision. The zero value supervises nothing:
// no deadline, one attempt, no memory budget — Supervisor then only adds
// campaign-wide cancellation.
type Policy struct {
	// Deadline is the per-attempt wall-clock budget; the watchdog raises
	// the cell's interrupt flag when it expires (0 = no deadline). The
	// engines observe the flag within vm.InterruptStride instructions.
	Deadline time.Duration
	// MaxAttempts caps attempts per cell, first try included (<=0 or 1 =
	// no retries).
	MaxAttempts int
	// BackoffBase is the delay before the first retry; each further retry
	// doubles it, capped at BackoffMax, with up to 50% random jitter
	// subtracted so retrying workers decorrelate (defaults: 100ms / 5s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed makes the jitter sequence reproducible (0 = fixed default).
	Seed int64
	// MemBudget is the soft heap budget in bytes for graceful degradation
	// (0 = unlimited): above memShedFraction of it the gate stops
	// admitting new cells beyond one at a time, and a cell is shed —
	// StatusSkipped, never silently dropped — only as a last resort, when
	// even a solo cell would start above the full budget after a forced
	// GC.
	MemBudget uint64
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 1
	}
	if p.BackoffBase <= 0 {
		p.BackoffBase = 100 * time.Millisecond
	}
	if p.BackoffMax <= 0 {
		p.BackoffMax = 5 * time.Second
	}
	return p
}

// memShedFraction of the budget is where the gate starts degrading: above
// it, admission narrows to one cell at a time so in-flight memory drains
// before new cells pile on.
const memShedFraction = 0.8

// Supervisor admits, watches and cancels campaign cells under one Policy.
// It is safe for concurrent use by the campaign's worker goroutines.
type Supervisor struct {
	pol Policy
	// width caps concurrently admitted cells.
	width int

	mu       sync.Mutex
	rng      *rand.Rand
	active   map[*vm.InterruptFlag]*ActiveCell
	inflight int
	waiters  []chan struct{}
	canceled bool

	// heapUsed reads the current heap footprint; swapped in tests to
	// exercise the degradation ladder deterministically.
	heapUsed func() uint64
	// sheds counts cells shed by the memory gate (diagnostics).
	sheds int
	// watchdogFires counts deadline watchdog expirations (the timer firing,
	// whether or not the engine was still running to observe it).
	watchdogFires int
	// mWatchdog, when non-nil, mirrors watchdogFires into the metrics
	// registry (SetMetrics).
	mWatchdog *obs.Counter
}

// ActiveCell is one admitted, currently-executing cell attempt — the
// heartbeat's unit of reporting.
type ActiveCell struct {
	// Key is the cell's content-addressed cache key.
	Key string
	// Attempt is the 0-based attempt index.
	Attempt int
	// Started is when the attempt was admitted.
	Started time.Time
	// Tier names the execution engine running the cell ("tree", "bytecode",
	// "compiler"); empty when the caller used Begin.
	Tier string
}

// NewSupervisor builds a supervisor for the policy that admits at most
// width cells at once (<=0 = 8).
func NewSupervisor(pol Policy, width int) *Supervisor {
	pol = pol.withDefaults()
	seed := pol.Seed
	if seed == 0 {
		seed = 0x5eed
	}
	if width <= 0 {
		width = 8
	}
	return &Supervisor{
		pol:      pol,
		width:    width,
		rng:      rand.New(rand.NewSource(seed)),
		active:   make(map[*vm.InterruptFlag]*ActiveCell),
		heapUsed: liveHeapBytes,
	}
}

// MaxAttempts returns the per-cell attempt cap.
func (s *Supervisor) MaxAttempts() int { return s.pol.MaxAttempts }

// liveHeapBytes is the process heap footprint the memory gate compares
// against the budget.
func liveHeapBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// Cancel interrupts every in-flight cell cooperatively and marks the
// campaign canceled: cells not yet admitted are shed as skipped. Used by
// the SIGINT/SIGTERM handler; idempotent.
func (s *Supervisor) Cancel() {
	s.mu.Lock()
	s.canceled = true
	flags := make([]*vm.InterruptFlag, 0, len(s.active))
	for f := range s.active {
		flags = append(flags, f)
	}
	waiters := s.waiters
	s.waiters = nil
	s.mu.Unlock()
	for _, f := range flags {
		f.Interrupt(vm.IntrCanceled)
	}
	for _, w := range waiters {
		close(w)
	}
}

// Canceled reports whether Cancel has been called.
func (s *Supervisor) Canceled() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.canceled
}

// Sheds returns how many cells the memory gate shed.
func (s *Supervisor) Sheds() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sheds
}

// Backoff returns the sleep before retry attempt (1-based retry index:
// attempt 0 is the first try, so Backoff(0) precedes attempt 1).
// Exponential in the retry index, capped, with up to 50% jitter subtracted;
// the jitter stream is seeded, so a campaign's delays are reproducible.
func (s *Supervisor) Backoff(attempt int) time.Duration {
	d := s.pol.BackoffBase
	for i := 0; i < attempt && d < s.pol.BackoffMax; i++ {
		d *= 2
	}
	if d > s.pol.BackoffMax {
		d = s.pol.BackoffMax
	}
	s.mu.Lock()
	j := time.Duration(s.rng.Int63n(int64(d)/2 + 1))
	s.mu.Unlock()
	return d - j
}

// CellCtx supervises one cell attempt: the interrupt flag its engines must
// poll, the armed deadline watchdog, and the admission verdict.
type CellCtx struct {
	// Flag is raised by the watchdog, Cancel, or a chaos kill; pass it to
	// vm.Options.Interrupt.
	Flag *vm.InterruptFlag
	// Shed is true when the cell was not admitted (canceled campaign or
	// memory-budget last resort); the caller must mark it StatusSkipped
	// and must not run it.
	Shed bool
	// ShedCause says why ("canceled", "memory budget").
	ShedCause string

	sup   *Supervisor
	timer *time.Timer
	done  bool
}

// SetMetrics mirrors watchdog fires into the registry's
// mi_watchdog_fires_total counter. Call before the campaign starts; a nil
// registry is a no-op.
func (s *Supervisor) SetMetrics(reg *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mWatchdog = reg.Counter("mi_watchdog_fires_total",
		"Deadline watchdog timer expirations (raised flags, observed or not).")
}

// WatchdogFires returns how many deadline watchdogs expired.
func (s *Supervisor) WatchdogFires() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.watchdogFires
}

// Active returns a snapshot of the currently-admitted cell attempts, oldest
// first — what the progress heartbeat reports.
func (s *Supervisor) Active() []ActiveCell {
	s.mu.Lock()
	cells := make([]ActiveCell, 0, len(s.active))
	for _, c := range s.active {
		cells = append(cells, *c)
	}
	s.mu.Unlock()
	sort.Slice(cells, func(i, j int) bool {
		if !cells[i].Started.Equal(cells[j].Started) {
			return cells[i].Started.Before(cells[j].Started)
		}
		return cells[i].Key < cells[j].Key
	})
	return cells
}

// Heartbeat emits the oldest active cell to emit every interval until the
// returned stop function is called. Intervals with no active cells emit
// nothing; stop is idempotent and safe from any goroutine.
func (s *Supervisor) Heartbeat(every time.Duration, emit func(ActiveCell)) (stop func()) {
	if every <= 0 || emit == nil {
		return func() {}
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if cells := s.Active(); len(cells) > 0 {
					emit(cells[0])
				}
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// Begin admits one cell attempt: it blocks while the campaign is over the
// parallelism width or the degradation threshold of the memory budget,
// sheds the cell if the campaign is canceled or even a solo run cannot fit
// the budget, then registers the attempt's interrupt flag and arms the
// deadline watchdog. Callers must End() the returned context.
func (s *Supervisor) Begin(key string, attempt int) *CellCtx {
	return s.BeginTier(key, attempt, "")
}

// BeginTier is Begin with the execution tier that will run the cell, so the
// heartbeat can name it (the harness passes its engine; plain Begin leaves
// it empty).
func (s *Supervisor) BeginTier(key string, attempt int, tier string) *CellCtx {
	c := &CellCtx{Flag: &vm.InterruptFlag{}, sup: s}
	for {
		s.mu.Lock()
		if s.canceled {
			s.mu.Unlock()
			c.Shed, c.ShedCause, c.done = true, "canceled", true
			return c
		}
		width := s.width
		overBudget := false
		if s.pol.MemBudget > 0 {
			used := s.heapUsed()
			if float64(used) >= memShedFraction*float64(s.pol.MemBudget) {
				// Degradation rung 1: shed parallelism, not cells —
				// admit strictly one at a time until pressure drains.
				width = 1
				overBudget = used >= s.pol.MemBudget
			}
		}
		if s.inflight < width {
			if overBudget && s.inflight == 0 {
				// Last resort: nothing else is running, yet the heap
				// still exceeds the budget. Give the runtime one chance
				// to return memory, then shed rather than start a cell
				// that would blow the budget further.
				s.mu.Unlock()
				runtime.GC()
				s.mu.Lock()
				if s.heapUsed() >= s.pol.MemBudget && s.inflight == 0 && !s.canceled {
					s.sheds++
					s.mu.Unlock()
					c.Shed, c.ShedCause, c.done = true, "memory budget", true
					return c
				}
				s.mu.Unlock()
				continue
			}
			s.inflight++
			s.active[c.Flag] = &ActiveCell{Key: key, Attempt: attempt, Started: time.Now(), Tier: tier}
			s.mu.Unlock()
			break
		}
		w := make(chan struct{})
		s.waiters = append(s.waiters, w)
		s.mu.Unlock()
		<-w
	}
	if d := s.pol.Deadline; d > 0 {
		flag := c.Flag
		c.timer = time.AfterFunc(d, func() {
			flag.Interrupt(vm.IntrDeadline)
			s.mu.Lock()
			s.watchdogFires++
			m := s.mWatchdog
			s.mu.Unlock()
			m.Inc()
		})
	}
	return c
}

// End releases the attempt's admission slot, disarms the watchdog and
// unregisters the flag. Idempotent.
func (c *CellCtx) End() {
	if c == nil || c.done {
		return
	}
	c.done = true
	if c.timer != nil {
		c.timer.Stop()
	}
	s := c.sup
	s.mu.Lock()
	delete(s.active, c.Flag)
	s.inflight--
	var w chan struct{}
	if len(s.waiters) > 0 {
		w = s.waiters[0]
		s.waiters = s.waiters[1:]
	}
	s.mu.Unlock()
	if w != nil {
		close(w)
	}
}
