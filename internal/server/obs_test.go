package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bytecode"
	"repro/internal/obs"
)

// syncBuffer is a goroutine-safe log sink for test servers.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// scrapeMetrics fetches /metricsz as Prometheus text.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metricsz")
	if err != nil {
		t.Fatalf("GET /metricsz: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading /metricsz: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metricsz: status %d", resp.StatusCode)
	}
	return string(data)
}

// promSum sums every series of one family in Prometheus text (counters and
// gauges; pass the _count suffix explicitly for histogram counts).
func promSum(t *testing.T, text, family string) float64 {
	t.Helper()
	sum := 0.0
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, family) {
			continue
		}
		rest := line[len(family):]
		if !strings.HasPrefix(rest, "{") && !strings.HasPrefix(rest, " ") {
			continue // longer family name sharing the prefix
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		sum += v
	}
	return sum
}

// TestMetricszInvariants is the reconciliation gate: after campaigns run,
// the /metricsz exposition must agree with itself (hits+misses == lookups,
// histogram counts == cell counts) and with /statsz (cell count == computed
// cells).
func TestMetricszInvariants(t *testing.T) {
	srv, cl := startTestServer(t, Config{Workers: 2})
	req := testRequest("bytecode")
	cells, _, err := expand(req)
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	for round := 0; round < 2; round++ { // round 2 is all cache hits
		ev, err := cl.Submit(req, nil)
		if err != nil {
			t.Fatalf("Submit round %d: %v", round, err)
		}
		if ev.Failed != 0 || ev.Cells != len(cells) {
			t.Fatalf("round %d: cells=%d failed=%d, want cells=%d failed=0", round, ev.Cells, ev.Failed, len(cells))
		}
		if ev.TraceID == "" {
			t.Errorf("round %d: report event carries no trace_id", round)
		}
	}

	text := scrapeMetrics(t, cl.BaseURL)
	for _, want := range []string{
		"# TYPE mi_cells_total counter",
		"# TYPE mi_cell_execute_seconds histogram",
		"# TYPE mi_queue_depth gauge",
		"# TYPE mi_requests_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metricsz missing %q", want)
		}
	}

	cellsTotal := promSum(t, text, "mi_cells_total")
	computed := float64(srv.Snapshot().Cache.Computed)
	if cellsTotal != computed {
		t.Errorf("sum(mi_cells_total) = %v, /statsz cache.computed = %v", cellsTotal, computed)
	}
	hits := promSum(t, text, "mi_cache_hits_total")
	misses := promSum(t, text, "mi_cache_misses_total")
	lookups := promSum(t, text, "mi_cache_lookups_total")
	if hits+misses != lookups {
		t.Errorf("hits(%v) + misses(%v) != lookups(%v)", hits, misses, lookups)
	}
	if misses != computed {
		t.Errorf("mi_cache_misses_total = %v, computed = %v", misses, computed)
	}
	for _, h := range []string{"mi_cell_execute_seconds_count", "mi_cell_total_seconds_count"} {
		if n := promSum(t, text, h); n != cellsTotal {
			t.Errorf("%s = %v, want %v (one observation per cell)", h, n, cellsTotal)
		}
	}
	if n := promSum(t, text, "mi_cell_queue_wait_seconds_count"); n != promSum(t, text, "mi_cells_scheduled_total") {
		t.Errorf("queue-wait observations = %v, scheduled = %v", n, promSum(t, text, "mi_cells_scheduled_total"))
	}
	if got := promSum(t, text, "mi_requests_total"); got != 2 {
		t.Errorf("mi_requests_total = %v, want 2", got)
	}
	if depth := promSum(t, text, "mi_queue_depth"); depth != 0 {
		t.Errorf("mi_queue_depth = %v after campaigns drained, want 0", depth)
	}
}

// TestClientDisconnectMidStream is the abandonment gate: when the only
// client of a campaign disconnects mid-stream, the queued cells it
// exclusively owns must be canceled (never executed), the queue gauges must
// drain to zero, and the abort must be logged — all observable via
// /metricsz. A later identical campaign must still complete cleanly by
// recomputing the canceled cells.
func TestClientDisconnectMidStream(t *testing.T) {
	logBuf := &syncBuffer{}
	lg, err := obs.NewLogger(logBuf, "info", "json")
	if err != nil {
		t.Fatal(err)
	}
	srv, cl := startTestServer(t, Config{Workers: 1, Logger: lg})
	req := testRequest("bytecode")
	cells, _, err := expand(req)
	if err != nil {
		t.Fatalf("expand: %v", err)
	}

	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(cl.BaseURL+"/campaign", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /campaign: %v", err)
	}
	// Read exactly one streamed cell event, then vanish.
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("reading first event: %v", err)
	}
	var first Event
	if err := json.Unmarshal([]byte(line), &first); err != nil {
		t.Fatalf("first event %q: %v", line, err)
	}
	if first.Type != "cell" {
		t.Fatalf("first event type %q, want cell", first.Type)
	}
	resp.Body.Close()

	// The disconnect must cancel the queued cells only this request held,
	// and the queue gauges must drain.
	deadline := time.Now().Add(15 * time.Second)
	var canceled, depth, busy float64
	for {
		text := scrapeMetrics(t, cl.BaseURL)
		canceled = promSum(t, text, "mi_cells_canceled_total")
		depth = promSum(t, text, "mi_queue_depth")
		busy = promSum(t, text, "mi_workers_busy")
		if canceled >= 1 && depth == 0 && busy == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after disconnect: canceled=%v queue_depth=%v workers_busy=%v, want canceled>=1 and drained gauges", canceled, depth, busy)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := srv.Snapshot().Scheduler.Canceled; got < 1 {
		t.Errorf("scheduler stats canceled = %d, want >= 1", got)
	}
	logs := logBuf.String()
	if !strings.Contains(logs, "campaign aborted") {
		t.Errorf("logs carry no campaign-abort record:\n%s", logs)
	}
	if !strings.Contains(logs, "cell canceled") {
		t.Errorf("logs carry no cell-cancel record:\n%s", logs)
	}

	// Canceled cells were never executed and never cached: the same campaign
	// must now complete by computing them.
	ev, err := cl.Submit(req, nil)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if ev.Failed != 0 || ev.Cells != len(cells) {
		t.Fatalf("resubmit: cells=%d failed=%d, want cells=%d failed=0", ev.Cells, ev.Failed, len(cells))
	}
	if ev.Computed < 1 {
		t.Errorf("resubmit computed %d cells, want >= 1 (the canceled ones recompute)", ev.Computed)
	}
}

// TestMetricszTierInvariants is the compiler-tier reconciliation gate: after
// a compiler-engine campaign, /metricsz must expose the tier-attribution
// gauges and they must reconcile — native + interpreted instructions sum
// exactly to the total retired by compiler-tier engines, the native tier
// actually engaged (entries and native instructions nonzero when the
// platform supports it), and no fallback reason fired on the happy path.
func TestMetricszTierInvariants(t *testing.T) {
	_, cl := startTestServer(t, Config{Workers: 2})
	req := testRequest("compiler")
	cells, _, err := expand(req)
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	ev, err := cl.Submit(req, nil)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if ev.Failed != 0 || ev.Cells != len(cells) {
		t.Fatalf("cells=%d failed=%d, want cells=%d failed=0", ev.Cells, ev.Failed, len(cells))
	}

	text := scrapeMetrics(t, cl.BaseURL)
	for _, want := range []string{
		"# TYPE mi_tier_instrs gauge",
		"# TYPE mi_tier_total_instrs gauge",
		"# TYPE mi_native_fallbacks gauge",
		"# TYPE mi_native_build_ms gauge",
		`mi_tier_instrs{tier="native"}`,
		`mi_tier_instrs{tier="interpreted"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metricsz missing %q", want)
		}
	}

	total := promSum(t, text, "mi_tier_total_instrs")
	if total <= 0 {
		t.Fatal("mi_tier_total_instrs = 0 after a compiler-engine campaign")
	}
	if sum := promSum(t, text, "mi_tier_instrs"); sum != total {
		t.Errorf("sum(mi_tier_instrs) = %v, mi_tier_total_instrs = %v (every instruction must land in exactly one tier)", sum, total)
	}
	if !bytecode.NativeAvailable() {
		t.Log("native tier disabled on this platform; skipping native-engagement assertions")
		return
	}
	if fails := promSum(t, text, "mi_native_failures"); fails > 0 {
		t.Logf("native builds failed in this environment (%v); skipping native-engagement assertions", fails)
		return
	}
	if entries := promSum(t, text, "mi_native_entries"); entries <= 0 {
		t.Error("mi_native_entries = 0: the native tier never engaged on a happy-path compiler campaign")
	}
	if native := promSum(t, text, `mi_tier_instrs{tier="native"}`); native <= 0 {
		t.Error("mi_tier_instrs{tier=\"native\"} = 0: native code retired no instructions")
	}
	if fb := promSum(t, text, "mi_native_fallbacks"); fb != 0 {
		t.Errorf("mi_native_fallbacks sum = %v, want 0 on the happy path:\n%s", fb, text)
	}
}

// TestStatszVersionAndWarmed pins the /statsz additions: build version,
// uptime and warmed-cell count.
func TestStatszVersionAndWarmed(t *testing.T) {
	_, cl := startTestServer(t, Config{Workers: 1})
	resp, err := http.Get(cl.BaseURL + "/statsz")
	if err != nil {
		t.Fatalf("GET /statsz: %v", err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding /statsz: %v", err)
	}
	if st.Version == "" {
		t.Error("statsz version is empty")
	}
	if st.UptimeSeconds <= 0 {
		t.Errorf("statsz uptime_seconds = %v, want > 0", st.UptimeSeconds)
	}
	if st.WarmedCells != 0 {
		t.Errorf("statsz warmed_cells = %d, want 0 (no warm journal)", st.WarmedCells)
	}
}
