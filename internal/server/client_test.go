package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// TestSubmitAllocsStaySmall: a cached one-cell request allocates, client
// and in-process server together, far less than the 1 MiB line buffer the
// client once allocated per request. The stream's longest line is the
// report event, a few KiB.
func TestSubmitAllocsStaySmall(t *testing.T) {
	_, cl := startTestServer(t, Config{Workers: 1})
	req := CampaignRequest{Benches: []string{"164gzip"}, Configs: []string{"baseline"}, Engine: "tree"}
	if _, err := cl.Submit(req, nil); err != nil { // computes and caches the cell
		t.Fatalf("warm Submit: %v", err)
	}
	const n = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if _, err := cl.Submit(req, nil); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("%d bytes allocated per cached Submit", perCall)
	if perCall > 256<<10 {
		t.Errorf("a cached Submit allocates %d bytes, want <= 256 KiB", perCall)
	}
}

// TestSubmitReadsLongLines: the client's line buffer grows on demand, so a
// stream line longer than the old fixed 1 MiB start still decodes.
func TestSubmitReadsLongLines(t *testing.T) {
	long := strings.Repeat("x", 3<<20)
	hts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		enc := json.NewEncoder(w)
		_ = enc.Encode(Event{Type: "cell", Key: "k", Err: long})
		_ = enc.Encode(Event{Type: "report", Cells: 1})
	}))
	defer hts.Close()
	var got string
	rep, err := (&Client{BaseURL: hts.URL}).Submit(CampaignRequest{}, func(ev Event) { got = ev.Err })
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if got != long || rep.Cells != 1 {
		t.Errorf("cell error of %d bytes and report of %d cells, want %d bytes and 1 cell", len(got), rep.Cells, len(long))
	}
}
