package vm

import (
	"fmt"
	"sync/atomic"
)

// Interrupt reasons. A supervisor sets exactly one reason on a flag; the
// first writer wins, so an engine that observes the flag reports a single,
// stable cause even when a deadline and a campaign-wide cancellation race.
const (
	// IntrNone: the flag is not raised.
	IntrNone uint32 = iota
	// IntrDeadline: the cell's wall-clock deadline expired (watchdog).
	IntrDeadline
	// IntrCanceled: the campaign is shutting down (SIGINT/SIGTERM or an
	// explicit supervisor Cancel).
	IntrCanceled
	// IntrChaos: a chaos-mode fault injection killed the cell mid-run.
	IntrChaos
)

// interruptReasonName names a reason for error messages and statuses.
func interruptReasonName(r uint32) string {
	switch r {
	case IntrDeadline:
		return "deadline"
	case IntrCanceled:
		return "canceled"
	case IntrChaos:
		return "chaos-kill"
	}
	return "none"
}

// InterruptFlag is a cooperative cancellation flag shared between a
// supervising goroutine (watchdog timer, signal handler, chaos injector) and
// an executing engine. Engines poll it on their step-count path whenever the
// count reaches a multiple of InterruptStride, so a raised flag stops a
// spinning cell within a bounded number of instructions — the same
// machinery that enforces MaxSteps, extended to external causes. The zero
// value is ready to use.
type InterruptFlag struct {
	reason atomic.Uint32
}

// Interrupt raises the flag with the given reason. The first reason to land
// sticks; later calls are no-ops, so the engine reports one stable cause.
func (f *InterruptFlag) Interrupt(reason uint32) {
	if reason == IntrNone {
		return
	}
	f.reason.CompareAndSwap(IntrNone, reason)
}

// Raised returns the pending reason, or IntrNone.
func (f *InterruptFlag) Raised() uint32 {
	if f == nil {
		return IntrNone
	}
	return f.reason.Load()
}

// InterruptStride is the poll period: every engine polls the flag when its
// single step count reaches a multiple of it, so a raised flag is observed
// within InterruptStride instructions and at the same instruction on every
// engine (native code polls once per batch that crosses a multiple). Polling
// is a mask test of the step count per dispatch plus an atomic load every
// stride, so the no-deadline path stays within noise (guarded by
// TestWatchdogNeutrality).
const InterruptStride = 1024

// InterruptError reports that execution was stopped by a raised
// InterruptFlag. It is a terminal verdict for the run, not for the campaign:
// supervisors classify it (timeout / skipped / retried) rather than treating
// it as a program failure.
type InterruptError struct {
	// Reason is the IntrDeadline/IntrCanceled/IntrChaos cause.
	Reason uint32
	// Steps is the engine's executed-instruction count at the stop.
	Steps uint64
	// Trace is the IR-level backtrace at the stop (tree interpreter only;
	// the bytecode engine reports function granularity).
	Trace []TraceFrame
}

// Error implements the error interface.
func (e *InterruptError) Error() string {
	s := fmt.Sprintf("vm: interrupted (%s) after %d steps", ReasonString(e.Reason), e.Steps)
	for _, t := range e.Trace {
		s += "\n\tat " + t.String()
	}
	return s
}

// ReasonString names an interrupt reason ("deadline", "canceled",
// "chaos-kill").
func ReasonString(r uint32) string { return interruptReasonName(r) }
