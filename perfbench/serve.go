package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/server"
)

// serve-mix: an open loop of one-cell requests against an in-process
// server.New on loopback with two workers. Arrivals are independent users,
// so a request is timed from when it was due, whatever the server did to
// the requests before it.
var serveTraffic = serveMix{
	// Rate is well below saturation: misses keep the two workers about a
	// fifth busy, and a window of 20 s holds about 120 of them, enough for a
	// steady op_ms_p90 (a quarter of the requests are misses, so p90 lies
	// among them).
	Rate:      24,
	MissShare: 0.25,
	// The popular set is part of the Fig. 9 matrix on the server's default
	// bytecode engine; set-up computes it, so repeats of it are hits.
	Popular: matrix([]string{"164gzip", "179art", "183equake", "456hmmer"}, fig9Configs),
	// New cells come from the ten programs whose bytecode cells take under
	// 0.1 s on average; the others (up to 0.47 s) would saturate the two
	// workers at this miss rate.
	MissBenches: []string{"179art", "183equake", "188ammp", "197parser", "433milc",
		"445gobmk", "458sjeng", "462libquantum", "470lbm", "482sphinx3"},
}

// maxLateMS is how late the generator may dispatch a request before the run
// is flagged invalid.
const maxLateMS = 100

// served is a running in-process server and its client.
type served struct {
	srv    *server.Server
	hs     *http.Server
	tr     *http.Transport
	client *server.Client
	done   chan struct{}
}

// startServed starts the server, waits until it is healthy and computes the
// popular set.
func startServed() (*served, error) {
	srv, err := server.New(server.Config{Workers: 2})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	// At most two connections: the load comes from one process with at most
	// two connections; requests beyond that wait for one, on the clock.
	tr := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	s := &served{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		tr:     tr,
		client: &server.Client{BaseURL: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: tr}},
		done:   make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns ErrServerClosed after Shutdown
	}()
	if err := s.client.WaitHealthy(10 * time.Second); err != nil {
		s.stop()
		return nil, err
	}
	var benches []string
	for i, c := range serveTraffic.Popular {
		if i%len(fig9Configs) == 0 {
			benches = append(benches, c.Bench)
		}
	}
	ev, err := s.client.Submit(server.CampaignRequest{Benches: benches, Configs: fig9Configs}, nil)
	if err == nil && (ev.Failed != 0 || ev.Cells != len(serveTraffic.Popular)) {
		err = fmt.Errorf("popular set: %d cells, %d failed", ev.Cells, ev.Failed)
	}
	if err != nil {
		s.stop()
		return nil, fmt.Errorf("computing the popular set: %w", err)
	}
	return s, nil
}

// stop shuts the server down and waits for it.
func (s *served) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // a timeout leaves Close below to cut what remains
	_ = s.hs.Close()
	<-s.done
	_ = s.srv.Close()
	s.tr.CloseIdleConnections()
}

// reqOutcome is one served request and its client-side timeline.
type reqOutcome struct {
	cellOutcome
	miss                   bool // planned as a cell no earlier request asked for
	computed               bool // the server executed the cell
	due, sent, first, done time.Time
}

// request sends one arrival and checks the response: a report event with
// failed = 0 and the requested cell present and clean.
func (s *served) request(a arrival, due time.Time) reqOutcome {
	o := reqOutcome{cellOutcome: cellOutcome{cell: a.Cell}, miss: a.Miss, due: due, sent: time.Now()}
	var cells []server.Event
	ev, err := s.client.Submit(server.CampaignRequest{
		Benches: []string{a.Cell.Bench}, Configs: []string{a.Cell.Config},
		SiteProfile: a.Cell.SiteProfile, Forensics: a.Cell.Forensics,
	}, func(e server.Event) {
		if o.first.IsZero() {
			o.first = time.Now()
		}
		cells = append(cells, e)
	})
	o.done = time.Now()
	o.lat = o.done.Sub(due)
	switch {
	case err != nil:
	case ev.Failed != 0 || ev.Cells != 1 || len(cells) != 1:
		err = fmt.Errorf("report: %d cells, %d failed, %d cell events", ev.Cells, ev.Failed, len(cells))
	case cells[0].Err != "" || cells[0].Rec == nil:
		err = fmt.Errorf("cell event without a result: %s", cells[0].Err)
	case cells[0].Rec.Err != "" || cells[0].Rec.Status != "ok" || cells[0].Rec.Instrs == 0:
		err = fmt.Errorf("cell %s: status %s: %s", cells[0].Key, cells[0].Rec.Status, cells[0].Rec.Err)
	case ev.Report == nil || len(ev.Report.Records) != 1 || ev.Report.Records[0].Key != cells[0].Key:
		err = fmt.Errorf("report does not carry the requested cell")
	default:
		o.computed = ev.Computed == 1
		o.stats.Instrs, o.stats.Checks = cells[0].Rec.Instrs, cells[0].Rec.Checks
	}
	if err != nil {
		o.err = fmt.Errorf("%s: %w", a.Cell, err)
	}
	return o
}

// schedSample is one in-process /statsz reading during the window.
type schedSample struct {
	depth int
	util  float64
}

// openLoop dispatches every arrival at its due time relative to start and
// waits for all of them, sampling the scheduler meanwhile.
func (s *served) openLoop(arrivals []arrival, start time.Time) ([]reqOutcome, []schedSample) {
	out := make([]reqOutcome, len(arrivals))
	stop := make(chan struct{})
	sampled := make(chan []schedSample)
	go func() {
		var samples []schedSample
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				sampled <- samples
				return
			case <-tick.C:
				st := s.srv.Snapshot().Scheduler
				samples = append(samples, schedSample{st.QueueDepth, st.Utilization})
			}
		}
	}()
	var wg sync.WaitGroup
	for i, a := range arrivals {
		due := start.Add(a.Due)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(i int, a arrival) {
			defer wg.Done()
			out[i] = s.request(a, due)
		}(i, a)
	}
	wg.Wait()
	close(stop)
	return out, <-sampled
}

func serveMixRun(rn *run) error {
	var s *served
	up := func() error {
		if err := rn.private(false, false); err != nil {
			return err
		}
		var err error
		s, err = startServed()
		return err
	}
	down := func() {
		if s != nil {
			s.stop()
			s = nil
		}
		rn.removePrivate()
	}
	if err := rn.setup(up, down); err != nil {
		down()
		return err
	}
	arrivals := serveTraffic.schedule(rn.seed, rn.window)
	split := len(arrivals)
	if rn.trace {
		split = sort.Search(len(arrivals), func(i int) bool { return arrivals[i].Due >= rn.window/2 })
	}
	rn.note("serve-mix: %d requests due in %v at %.0f/s, miss share %.2f, popular set %d cells",
		len(arrivals), rn.window, serveTraffic.Rate, serveTraffic.MissShare, len(serveTraffic.Popular))

	start := time.Now()
	reqs, samples := s.openLoop(arrivals[:split], start)
	rn.timedOps(cellsOf(reqs), time.Since(start))
	rn.serveValidity(reqs, samples)
	if rn.trace {
		// The traced half restarts the clock, so the untraced half's tail
		// does not make its first requests late.
		rest := append([]arrival(nil), arrivals[split:]...)
		for i := range rest {
			rest[i].Due -= rn.window / 2
		}
		rn.tracedServe(s, rest)
	}
	rn.ledger()
	return nil
}

func cellsOf(reqs []reqOutcome) []cellOutcome {
	out := make([]cellOutcome, len(reqs))
	for i, r := range reqs {
		out[i] = r.cellOutcome
	}
	return out
}

// serveValidity prints generator lateness and queue depth, and flags a run
// whose generator fell behind, whose queue grew over the window, or whose
// planned hits and misses were not served as planned.
func (rn *run) serveValidity(reqs []reqOutcome, samples []schedSample) {
	var late []float64
	unplanned := 0
	for _, r := range reqs {
		late = append(late, ms(r.sent.Sub(r.due)))
		if r.err == nil && r.computed != r.miss {
			unplanned++
		}
	}
	depth := func(ss []schedSample) (mean float64, most int) {
		for _, s := range ss {
			mean += float64(s.depth) / float64(len(ss))
			if s.depth > most {
				most = s.depth
			}
		}
		return mean, most
	}
	h := len(samples) / 2
	first, _ := depth(samples[:h])
	second, _ := depth(samples[h:])
	_, maxDepth := depth(samples)
	p99 := quantile(late, 0.99)
	rn.note("generator: lateness p99 %.3f ms, max %.3f ms over %d requests", p99, quantile(late, 1), len(late))
	rn.note("queue depth: max %d, mean %.2f then %.2f over the two halves of the window", maxDepth, first, second)
	if p99 > maxLateMS {
		rn.invalid(fmt.Sprintf("the generator fell behind: lateness p99 %.1f ms", p99))
	}
	if second > first+1 {
		rn.invalid(fmt.Sprintf("the queue grew over the run: mean depth %.2f then %.2f", first, second))
	}
	if unplanned > 0 {
		rn.invalid(fmt.Sprintf("%d requests were not served as planned (a hit computed or a miss cached)", unplanned))
	}
}

// tracedServe runs the second half of the window with client-side spans and
// /statsz and /metricsz scraped before and after.
func (rn *run) tracedServe(s *served, arrivals []arrival) {
	tr := newTracer()
	rn.tracer = tr
	st0, err0 := s.client.Statsz()
	m0, err1 := scrapeMetrics(s)
	var reqs []reqOutcome
	var samples []schedSample
	rn.processDeltas(func() { reqs, samples = s.openLoop(arrivals, time.Now()) })
	st1, err2 := s.client.Statsz()
	m1, err3 := scrapeMetrics(s)
	for _, err := range []error{err0, err1, err2, err3} {
		if err != nil {
			rn.fail("scraping the server: " + err.Error())
			return
		}
	}
	rn.countOps(cellsOf(reqs))
	rn.serveValidity(reqs, samples)

	var late, firstEv, stream, lat []float64
	var instrs, checks float64
	computed := 0
	for _, r := range reqs {
		late = append(late, ms(r.sent.Sub(r.due)))
		lat = append(lat, ms(r.lat))
		id := tr.newCell()
		label := r.cell.String()
		if !r.miss {
			label += " (hit)"
		}
		root := tr.record("serve.request", label, id, -1, r.due, r.done)
		if r.err != nil {
			continue
		}
		tr.record("serve.first_event", "", id, root, r.sent, r.first)
		tr.record("serve.report", "", id, root, r.first, r.done)
		firstEv = append(firstEv, ms(r.first.Sub(r.sent)))
		stream = append(stream, ms(r.done.Sub(r.first)))
		if r.computed {
			computed++
			instrs += float64(r.stats.Instrs)
			checks += float64(r.stats.Checks)
		}
	}
	L := rn.layers
	L["server.first_event_ms"] = median(firstEv)
	L["server.stream_ms"] = median(stream)
	wait := m1.hist("mi_cell_queue_wait_seconds").minus(m0.hist("mi_cell_queue_wait_seconds"))
	L["server.queue_wait_ms_p50"] = wait.quantile(0.5) * 1000
	dh, dc := float64(st1.Cache.Hits-st0.Cache.Hits), float64(st1.Cache.Computed-st0.Cache.Computed)
	L["server.hit_ratio"] = ratio(dh, dh+dc)
	L["server.coalesced"] = float64(st1.Scheduler.Coalesced - st0.Scheduler.Coalesced)
	var util []float64
	maxDepth := 0
	for _, smp := range samples {
		util = append(util, smp.util)
		if smp.depth > maxDepth {
			maxDepth = smp.depth
		}
	}
	L["server.queue_depth_max"] = float64(maxDepth)
	L["server.workers_busy_ratio"] = mean(util)
	L["bench.gen_late_ms_p99"] = quantile(late, 0.99)
	exec := m1.hist("mi_cell_execute_seconds").minus(m0.hist("mi_cell_execute_seconds"))
	cell := m1.hist("mi_cell_total_seconds").minus(m0.hist("mi_cell_total_seconds"))
	L["bytecode.exec_ms"] = ratio(exec.sum, exec.count) * 1000
	L["harness.cell_ms"] = ratio(cell.sum, cell.count) * 1000
	L["vm.instrs"] = ratio(instrs, float64(computed))
	L["vm.checks"] = ratio(checks, float64(computed))
	L["bytecode.exec_minstrs_per_s"] = ratio(instrs, exec.sum) / 1e6
	L["bench.trace_overhead_ratio"] = ratio(median(lat), median(latencies(rn.ops)))
}

func latencies(cells []cellOutcome) []float64 {
	out := make([]float64, len(cells))
	for i, c := range cells {
		out[i] = ms(c.lat)
	}
	return out
}

// metricsText is one /metricsz scrape.
type metricsText string

func scrapeMetrics(s *served) (metricsText, error) {
	resp, err := s.client.HTTP.Get(s.client.BaseURL + "/metricsz")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("metricsz: HTTP %d", resp.StatusCode)
	}
	return metricsText(data), nil
}

// promHist is a histogram summed over all its label sets: cumulative
// bucket counts by upper bound, sum and count.
type promHist struct {
	le         map[float64]float64
	sum, count float64
}

func (m metricsText) hist(name string) promHist {
	h := promHist{le: map[float64]float64{}}
	sc := bufio.NewScanner(strings.NewReader(string(m)))
	for sc.Scan() {
		line := sc.Text()
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 || !strings.HasPrefix(line, name+"_") {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		series := line[:sp]
		switch {
		case strings.HasPrefix(series, name+"_bucket"):
			i := strings.Index(series, `le="`)
			if i < 0 {
				continue
			}
			bound := series[i+4:]
			bound = bound[:strings.IndexByte(bound, '"')]
			b, err := strconv.ParseFloat(bound, 64) // "+Inf" parses as +Inf
			if err == nil {
				h.le[b] += v
			}
		case strings.HasPrefix(series, name+"_sum"):
			h.sum += v
		case strings.HasPrefix(series, name+"_count"):
			h.count += v
		}
	}
	return h
}

func (a promHist) minus(b promHist) promHist {
	d := promHist{le: map[float64]float64{}, sum: a.sum - b.sum, count: a.count - b.count}
	for k, v := range a.le {
		d.le[k] = v - b.le[k]
	}
	return d
}

// quantile interpolates linearly inside the bucket holding the q-quantile.
func (h promHist) quantile(q float64) float64 {
	var bounds []float64
	for b := range h.le {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	target := q * h.count
	prevB, prevC := 0.0, 0.0
	for _, b := range bounds {
		c := h.le[b]
		if c >= target && c > prevC {
			if math.IsInf(b, 1) {
				return prevB
			}
			return prevB + (b-prevB)*(target-prevC)/(c-prevC)
		}
		prevB, prevC = b, c
	}
	return prevB
}
