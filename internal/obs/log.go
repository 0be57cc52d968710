package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	mrand "math/rand"
	"strings"
	"sync"
)

// Structured logging: every CLI builds its logger here from the shared
// -log-level / -log-format flag vocabulary, so server, harness and
// supervisor records look the same everywhere and always carry the same
// keys (bench, config, engine, trace_id).

// ParseLevel maps a -log-level flag value to a slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown log level %q (debug, info, warn, error)", s)
}

// NewLogger builds a slog.Logger writing to w. format is "text" (default) or
// "json"; level is parsed by ParseLevel. Timestamps are kept — these are
// operational logs, not report artifacts.
func NewLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	lv, err := ParseLevel(level)
	if err != nil {
		return nil, err
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch strings.ToLower(format) {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	}
	return nil, fmt.Errorf("unknown log format %q (text, json)", format)
}

// traceFallback seeds a process-local generator used only if crypto/rand
// fails (it effectively never does); guarded because math/rand sources are
// not concurrency-safe.
var (
	traceMu       sync.Mutex
	traceFallback = mrand.New(mrand.NewSource(0x7ace))
)

// NewTraceID mints a 16-hex-character request trace ID. IDs are minted at
// the HTTP boundary (one per campaign request) or per campaign in mi-bench,
// stamped on every span and log record the request touches, so one grep (or
// one Perfetto query) follows a request across scheduler, supervisor and
// engine.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		traceMu.Lock()
		traceFallback.Read(b[:])
		traceMu.Unlock()
	}
	return hex.EncodeToString(b[:])
}
