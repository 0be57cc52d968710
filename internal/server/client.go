package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// Client submits campaigns to a running mi-serve and consumes its streamed
// responses. mi-bench's -server mode and the replay load generator are both
// built on it.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8077".
	BaseURL string
	// HTTP is the transport (nil = a default client with no timeout;
	// campaign streams are long-lived, so the zero http.Client timeout is
	// correct).
	HTTP *http.Client
	// Recorder, when non-nil, appends every submitted request to a traffic
	// log for later replay.
	Recorder *Recorder
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{}
}

// Submit posts the campaign and streams its NDJSON events; onCell (optional)
// is called for every cell event as it lands. The final report event is
// returned.
func (c *Client) Submit(req CampaignRequest, onCell func(Event)) (*Event, error) {
	if c.Recorder != nil {
		if err := c.Recorder.Record(req); err != nil {
			return nil, fmt.Errorf("recording request: %w", err)
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Post(strings.TrimSuffix(c.BaseURL, "/")+"/campaign",
		"application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return nil, fmt.Errorf("server: %s (HTTP %d)", e.Error, resp.StatusCode)
		}
		return nil, fmt.Errorf("server: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}

	sc := bufio.NewScanner(resp.Body)
	// Report events carry a full PerfReport (sites included under
	// -siteprofile), so lines may reach the journal reader's 64 MiB limit.
	// The buffer starts small and grows only for long lines, so a short
	// cached response does not zero (and later collect) a 1 MiB buffer.
	sc.Buffer(nil, 1<<26)
	var report *Event
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("decoding stream: %w", err)
		}
		switch ev.Type {
		case "cell":
			if onCell != nil {
				onCell(ev)
			}
		case "report":
			report = &ev
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading stream: %w", err)
	}
	if report == nil {
		return nil, fmt.Errorf("stream ended without a report event (connection cut mid-campaign?)")
	}
	return report, nil
}

// Statsz fetches and decodes /statsz.
func (c *Client) Statsz() (*Stats, error) {
	resp, err := c.http().Get(strings.TrimSuffix(c.BaseURL, "/") + "/statsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("statsz: HTTP %d", resp.StatusCode)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// WaitHealthy polls /healthz until the server answers ok or the timeout
// expires — the startup handshake of the e2e smoke tests.
func (c *Client) WaitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	url := strings.TrimSuffix(c.BaseURL, "/") + "/healthz"
	var last error
	for time.Now().Before(deadline) {
		resp, err := c.http().Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			last = fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
		} else {
			last = err
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("server not healthy after %v: %w", timeout, last)
}
