package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/harness"
)

// testBenches are small, fast suite members: these tests exercise the
// serving machinery, not the benchmarks.
var testBenches = []string{"164gzip", "179art"}

func testRequest(engine string) CampaignRequest {
	return CampaignRequest{
		Benches: testBenches,
		Configs: []string{"baseline", "softbound", "lowfat"},
		Engine:  engine,
	}
}

// startTestServer builds a server over the full HTTP stack (real listener,
// real client) and tears it down with the test.
func startTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hts.Close()
		_ = srv.Close()
	})
	return srv, &Client{BaseURL: hts.URL}
}

func canonicalJSON(t *testing.T, rep *harness.PerfReport) string {
	t.Helper()
	data, err := json.Marshal(rep.Canonical())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(data)
}

// TestServerMatchesLocalRun is the fidelity gate: the report a campaign
// request streams back must be byte-identical — in canonical form, which is
// what mi-prof -diff compares — to the same campaign executed locally by a
// plain harness runner, on both engines.
func TestServerMatchesLocalRun(t *testing.T) {
	for _, engine := range []string{"bytecode", "tree"} {
		t.Run(engine, func(t *testing.T) {
			req := testRequest(engine)
			cells, axes, err := expand(req)
			if err != nil {
				t.Fatalf("expand: %v", err)
			}

			_, cl := startTestServer(t, Config{Workers: 2})
			ev, err := cl.Submit(req, nil)
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			if ev.Failed != 0 || ev.Cells != len(cells) {
				t.Fatalf("report event: cells=%d failed=%d, want cells=%d failed=0",
					ev.Cells, ev.Failed, len(cells))
			}

			local := harness.NewRunner()
			local.SetAxes(axes)
			for _, c := range cells {
				if _, err := local.Run(c.bench, c.cfg); err != nil {
					t.Fatalf("local run %s: %v", c.key, err)
				}
			}
			localRep := local.ReportForKeys(axes.Engine.String(), false, keysOf(cells))

			got, want := canonicalJSON(t, ev.Report), canonicalJSON(t, localRep)
			if got != want {
				t.Errorf("served report differs from local run\nserved: %s\nlocal:  %s", got, want)
			}
		})
	}
}

// TestConcurrentSameKeyRequests is the dedup gate: N concurrent requests for
// the same matrix must compute each distinct cell exactly once between the
// scheduler's in-flight coalescing and the runner's singleflight cache —
// observable via /statsz. Run under -race this also proves cross-request
// isolation of the whole serving stack.
func TestConcurrentSameKeyRequests(t *testing.T) {
	_, cl := startTestServer(t, Config{Workers: 4})
	req := testRequest("bytecode")
	cells, _, err := expand(req)
	if err != nil {
		t.Fatalf("expand: %v", err)
	}

	const clients = 8
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			own := &Client{BaseURL: cl.BaseURL}
			ev, err := own.Submit(req, nil)
			if err == nil && (ev.Failed != 0 || ev.Cells != len(cells)) {
				err = fmt.Errorf("cells=%d failed=%d, want cells=%d failed=0", ev.Cells, ev.Failed, len(cells))
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}

	st, err := cl.Statsz()
	if err != nil {
		t.Fatalf("Statsz: %v", err)
	}
	if st.Cache.Computed != uint64(len(cells)) {
		t.Errorf("computed %d cells for %d identical concurrent requests, want exactly %d (each cell once)",
			st.Cache.Computed, clients, len(cells))
	}
	if st.Requests.Total != clients {
		t.Errorf("requests.total = %d, want %d", st.Requests.Total, clients)
	}
	if got := st.Scheduler.Scheduled + st.Scheduler.Coalesced; got < uint64(len(cells)) {
		t.Errorf("scheduled+coalesced = %d, want >= %d", got, len(cells))
	}
}

// TestRepeatRequestServedFromCache: a repeated identical request must be
// served at least 90% from the content-addressed cache (the acceptance
// criterion; in practice 100%), with no recomputation visible in /statsz.
func TestRepeatRequestServedFromCache(t *testing.T) {
	_, cl := startTestServer(t, Config{Workers: 2})
	req := testRequest("bytecode")

	first, err := cl.Submit(req, nil)
	if err != nil {
		t.Fatalf("first Submit: %v", err)
	}
	st1, err := cl.Statsz()
	if err != nil {
		t.Fatalf("Statsz: %v", err)
	}

	second, err := cl.Submit(req, nil)
	if err != nil {
		t.Fatalf("second Submit: %v", err)
	}
	if second.Cells != first.Cells {
		t.Fatalf("second request saw %d cells, first saw %d", second.Cells, first.Cells)
	}
	if frac := float64(second.Served) / float64(second.Cells); frac < 0.9 {
		t.Errorf("repeat request served %d/%d = %.0f%% from cache, want >= 90%%",
			second.Served, second.Cells, 100*frac)
	}
	st2, err := cl.Statsz()
	if err != nil {
		t.Fatalf("Statsz: %v", err)
	}
	if st2.Cache.Computed != st1.Cache.Computed {
		t.Errorf("repeat request recomputed cells: computed %d -> %d", st1.Cache.Computed, st2.Cache.Computed)
	}
	if st2.Cache.Hits <= st1.Cache.Hits {
		t.Errorf("repeat request did not register cache hits: %d -> %d", st1.Cache.Hits, st2.Cache.Hits)
	}
}

// TestBadRequestsFailAsOne400 pins expand's up-front validation: a bad name
// anywhere in the matrix rejects the whole request before any cell runs.
func TestBadRequestsFailAsOne400(t *testing.T) {
	_, cl := startTestServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		req  CampaignRequest
		want string
	}{
		{"no configs", CampaignRequest{Benches: testBenches}, "no configs"},
		{"unknown config", CampaignRequest{Benches: testBenches, Configs: []string{"baseline", "nonsense"}}, "unknown config"},
		{"unknown bench", CampaignRequest{Benches: []string{"999nope"}, Configs: []string{"baseline"}}, "unknown benchmark"},
		{"unknown engine", CampaignRequest{Benches: testBenches, Configs: []string{"baseline"}, Engine: "quantum"}, "quantum"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := cl.Submit(tc.req, nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Submit = %v, want error containing %q", err, tc.want)
			}
			if !strings.Contains(err.Error(), "400") {
				t.Fatalf("Submit = %v, want HTTP 400", err)
			}
		})
	}

	resp, err := http.Get(cl.BaseURL + "/campaign")
	if err != nil {
		t.Fatalf("GET /campaign: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /campaign = HTTP %d, want 405", resp.StatusCode)
	}
}

// TestDrain pins graceful-drain semantics: after Drain, /healthz turns
// unhealthy (load balancers stop routing) and new campaigns get 503.
func TestDrain(t *testing.T) {
	srv, cl := startTestServer(t, Config{Workers: 1})
	if err := cl.WaitHealthy(2 * time.Second); err != nil {
		t.Fatalf("WaitHealthy: %v", err)
	}
	resp, err := http.Get(cl.BaseURL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = HTTP %d, want 200", resp.StatusCode)
	}

	srv.Drain()
	if !srv.Draining() {
		t.Fatal("Draining() = false after Drain")
	}
	resp, err = http.Get(cl.BaseURL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining = HTTP %d, want 503", resp.StatusCode)
	}

	_, err = cl.Submit(CampaignRequest{Benches: testBenches[:1], Configs: []string{"baseline"}}, nil)
	if err == nil || !strings.Contains(err.Error(), "draining") {
		t.Fatalf("Submit while draining = %v, want draining rejection", err)
	}
	st, err := cl.Statsz()
	if err != nil {
		t.Fatalf("Statsz: %v", err)
	}
	if !st.Draining || st.Requests.Rejected != 1 {
		t.Errorf("statsz: draining=%t rejected=%d, want true/1", st.Draining, st.Requests.Rejected)
	}
}

// TestJournalWarmUp proves the checkpoint round trip: a server journaling its
// cells can be restarted with -warm over the same file and serve the prior
// working set without recomputing, byte-identically.
func TestJournalWarmUp(t *testing.T) {
	journal := t.TempDir() + "/cells.jsonl"
	req := CampaignRequest{Benches: testBenches[:1], Configs: []string{"baseline", "softbound"}}

	srvA, err := New(Config{Workers: 1, JournalPath: journal})
	if err != nil {
		t.Fatalf("New A: %v", err)
	}
	htsA := httptest.NewServer(srvA.Handler())
	first, err := (&Client{BaseURL: htsA.URL}).Submit(req, nil)
	htsA.Close()
	if err != nil {
		t.Fatalf("Submit A: %v", err)
	}
	if err := srvA.Close(); err != nil {
		t.Fatalf("Close A: %v", err)
	}

	srvB, cl := startTestServer(t, Config{Workers: 1, WarmPath: journal})
	if srvB.Warmed() != first.Cells {
		t.Fatalf("Warmed() = %d, want %d", srvB.Warmed(), first.Cells)
	}
	second, err := cl.Submit(req, nil)
	if err != nil {
		t.Fatalf("Submit B: %v", err)
	}
	got, want := canonicalJSON(t, second.Report), canonicalJSON(t, first.Report)
	if got != want {
		t.Errorf("warmed report differs from original\nwarmed:   %s\noriginal: %s", got, want)
	}
}

// TestSSEStream: a client sending Accept: text/event-stream gets the same
// events framed as SSE.
func TestSSEStream(t *testing.T) {
	_, cl := startTestServer(t, Config{Workers: 1})
	body, _ := json.Marshal(CampaignRequest{Benches: testBenches[:1], Configs: []string{"baseline"}})
	hreq, err := http.NewRequest(http.MethodPost, cl.BaseURL+"/campaign", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q, want text/event-stream", ct)
	}
	var sb strings.Builder
	if _, err := io.Copy(&sb, resp.Body); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"event: cell", "event: report", "data: "} {
		if !strings.Contains(out, want) {
			t.Errorf("SSE stream missing %q:\n%s", want, out)
		}
	}
}

// TestSchedulerStop pins shutdown behavior: Stop drains and further Submits
// are rejected instead of panicking on a closed queue.
func TestSchedulerStop(t *testing.T) {
	r := harness.NewRunner()
	s := NewScheduler(r, 1, 0)
	cells, _, err := expand(CampaignRequest{Benches: testBenches[:1], Configs: []string{"baseline"}})
	if err != nil {
		t.Fatal(err)
	}
	tk, coalesced, err := s.Submit(cells[0], "t-test")
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if coalesced {
		t.Fatal("first Submit reported coalesced")
	}
	<-tk.done
	if tk.err != nil {
		t.Fatalf("task: %v", tk.err)
	}
	s.Stop()
	s.Stop() // idempotent
	if _, _, err := s.Submit(cells[0], "t-test"); err == nil {
		t.Fatal("Submit after Stop succeeded, want error")
	}
}
