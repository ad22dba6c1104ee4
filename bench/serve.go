package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/harness"
	"repro/internal/resultcache"
	"repro/internal/serve"
	"repro/internal/serve/api"
)

// coldExperiments are the quick experiments the serve workload's cold
// phase computes. Between them they reach the stream, memcpy, replayer,
// open-loop driver and transfer paths. They are listed longest first, so
// the two clients finish together and the phase is not one long job
// running alone at the end.
var coldExperiments = []string{"headline", "fig14", "fig8", "replay", "loadcurve"}

const (
	// serveClients is the closed loop's client count: each sends its next
	// job only after the previous one's result arrived.
	serveClients = 2
	// warmJobs is the warm phase's submission count per round.
	warmJobs = 4000
)

var errRejected = errors.New("rejected with 429")

// liveServer is an in-process pimmu-serve on a loopback port.
type liveServer struct {
	hs   *http.Server
	done chan error
	cl   *client
}

// startServer opens the store at dir, builds the server, and starts it
// listening; it returns once the server has answered a request. t holds
// the instants before the store opens, after serve.New, and once the
// server is ready.
func startServer(dir string) (srv *liveServer, t [3]time.Time, err error) {
	t[0] = time.Now()
	store, err := resultcache.Open(dir, resultcache.ReadWrite)
	if err != nil {
		return nil, t, err
	}
	s := serve.New(serve.Config{Store: store, MaxActive: 2, Workers: 1})
	t[1] = time.Now()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, t, err
	}
	srv = &liveServer{hs: &http.Server{Handler: s.Handler()}, done: make(chan error, 1)}
	go func() { srv.done <- srv.hs.Serve(ln) }()
	srv.cl = &client{base: "http://" + ln.Addr().String(), hc: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: serveClients, DisableCompression: true}}}
	if err := srv.cl.get("/v1/experiments", io.Discard); err != nil {
		srv.stop()
		return nil, t, err
	}
	t[2] = time.Now()
	return srv, t, nil
}

// stop closes the listener and every connection, and waits for Serve to
// return.
func (s *liveServer) stop() {
	s.hs.Close()
	<-s.done
	s.cl.hc.CloseIdleConnections()
}

// client speaks the pimmu-serve/v1 API.
type client struct {
	base string
	hc   *http.Client
}

// get fetches path into w, failing on any non-200 status.
func (cl *client) get(path string, w io.Writer) error {
	resp, err := cl.hc.Get(cl.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	_, err = io.Copy(w, resp.Body)
	return err
}

// jobRun is one job's client-side view.
type jobRun struct {
	t      [4]time.Time // before POST, after POST, after the event stream ended, after the result body
	status api.JobStatus
	body   []byte
}

func (j jobRun) latency() float64 { return j.t[3].Sub(j.t[0]).Seconds() }

// job submits one experiment and follows it to its result the way a
// pimmu-serve user does: POST the job, stream its events until it is
// done, GET the result.
func (cl *client) job(exp string, workers int) (j jobRun, err error) {
	req, err := json.Marshal(api.JobRequest{Schema: api.SchemaVersion, Experiment: exp, Workers: workers})
	if err != nil {
		return j, err
	}
	j.t[0] = time.Now()
	resp, err := cl.hc.Post(cl.base+"/v1/jobs", "application/json", bytes.NewReader(req))
	if err != nil {
		return j, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return j, err
	}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		return j, fmt.Errorf("%s: %w", exp, errRejected)
	case resp.StatusCode/100 != 2:
		return j, fmt.Errorf("POST %s: %s: %s", exp, resp.Status, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, &j.status); err != nil {
		return j, fmt.Errorf("POST %s: %w", exp, err)
	}
	j.t[1] = time.Now()
	if err := cl.follow(j.status.ID); err != nil {
		return j, fmt.Errorf("%s: %w", exp, err)
	}
	j.t[2] = time.Now()
	var body bytes.Buffer
	if err := cl.get("/v1/jobs/"+j.status.ID+"/result", &body); err != nil {
		return j, err
	}
	j.t[3] = time.Now()
	j.body = body.Bytes()
	return j, nil
}

// follow reads a job's NDJSON event stream until its terminal event.
func (cl *client) follow(id string) error {
	resp, err := cl.hc.Get(cl.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev api.JobEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("events: %w", err)
		}
		switch ev.State {
		case api.StateDone:
			_, err := io.Copy(io.Discard, resp.Body)
			return err
		case api.StateFailed:
			return fmt.Errorf("job failed: %s", ev.Error)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("events: %w", err)
	}
	return fmt.Errorf("events: stream ended before the job finished")
}

// closedLoop runs jobs 0..n-1 on serveClients clients, each taking the
// next job once its previous one finished, and returns when all are done.
func closedLoop(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range serveClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// serveTally accumulates the serve workload over rounds: per-round values
// and pooled per-job samples, in seconds.
type serveTally struct {
	parts                                                [][]float64 // per round: the phases' durations
	setups, news, preps, colds, warmRates, checks, plans []float64
	allocs, allocSizes, jobP50s                          []float64
	warmLatency, submit, wait, result, gets              []float64
	deduped, storeHits, rejected                         int
}

// runServe runs the serve workload. Each round starts a server on an
// empty store and computes the cold experiments through it (cold), then
// starts a fresh server on the now-warm store and sends it warm
// submissions cycling those experiments with workers 0, 1 and 2. The
// serve key ignores workers, so the first warm submission of each
// experiment is a store hit and the rest attach to that job: the warm
// phase simulates nothing.
func (c *child) runServe() error {
	if err := os.MkdirAll(c.cfg.workDir, 0o755); err != nil {
		return err
	}
	exps, warm := coldExperiments, warmJobs
	if c.cfg.tiny {
		exps, warm = []string{"loadcurve"}, 40
	}
	var t serveTally
	for r := 0; c.more(r); r++ {
		resetPeakRSS()
		if err := c.serveRound(exps, warm, r, &t); err != nil {
			return err
		}
		c.rss = append(c.rss, peakRSSMB())
		c.res.Rounds++
	}
	m := c.res.Metrics
	// Like a simulation op, each phase of the round counts at its fastest
	// round.
	for k := range t.parts[0] {
		var d []float64
		for _, p := range t.parts {
			d = append(d, p[k])
		}
		m["wall_s"] += minOf(d)
	}
	m["setup_s"] = median(t.setups)
	m["op_p50_ms"] = minOf(t.jobP50s) * 1e3
	m["cold_s"] = minOf(t.colds)
	m["warm_p50_ms"] = percentile(t.warmLatency, 0.5) * 1e3
	m["warm_p99_ms"] = percentile(t.warmLatency, 0.99) * 1e3
	m["warm_jobs_per_s"] = median(t.warmRates)
	m["span.new_ms"] = minOf(t.news) * 1e3
	m["span.prepare_ms"] = minOf(t.preps) * 1e3
	m["span.run_ms"] = minOf(t.colds) * 1e3
	m["span.check_ms"] = minOf(t.checks) * 1e3
	m["span.submit_us"] = percentile(t.submit, 0.5) * 1e6
	m["span.wait_us"] = percentile(t.wait, 0.5) * 1e6
	m["span.result_us"] = percentile(t.result, 0.5) * 1e6
	m["harness.plan_us"] = minOf(t.plans) * 1e6
	m["resultcache.get_us"] = median(t.gets) * 1e6
	m["runtime.allocs_per_req"] = minOf(t.allocs)
	m["runtime.alloc_bytes_per_req"] = minOf(t.allocSizes)
	m["serve.deduped"] = float64(t.deduped)
	m["serve.store_hits"] = float64(t.storeHits)
	m["serve.rejected"] = float64(t.rejected)
	return nil
}

// serveRound runs one cold and one warm phase. Errors returned are
// environment failures (no temp dir, no loopback port); job failures are
// counted and the round continues.
func (c *child) serveRound(exps []string, warm, round int, t *serveTally) error {
	marks := []time.Time{time.Now()} // phase boundaries
	mark := func() { marks = append(marks, time.Now()) }
	rid := c.spans.open(0, "round", "", marks[0])
	dir, err := os.MkdirTemp(c.cfg.workDir, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Cold: a fresh server on an empty store computes every experiment.
	cold, st, err := startServer(dir)
	if err != nil {
		return err
	}
	c.spans.add(rid, "new", "cold", st[0], st[1])
	c.spans.add(rid, "prepare", "cold", st[1], st[2])
	news, preps := st[1].Sub(st[0]).Seconds(), st[2].Sub(st[1]).Seconds()
	mark()
	coldRuns := make([]jobRun, len(exps))
	tc := time.Now()
	pid := c.spans.open(rid, "cold", "", tc)
	c.attempt(len(exps))
	closedLoop(len(exps), func(i int) {
		j, err := cold.cl.job(exps[i], 0)
		c.jobSpans(pid, exps[i], j, err)
		if err != nil {
			c.fail(err)
			return
		}
		coldRuns[i] = j
	})
	te := time.Now()
	c.spans.close(pid, te)
	cold.stop()
	mark()
	t.colds = append(t.colds, te.Sub(tc).Seconds())
	var latency []float64 // every job of the round
	for _, j := range coldRuns {
		if j.body != nil {
			latency = append(latency, j.latency())
		}
	}

	// Warm: a fresh server on the warmed store; nothing simulates.
	hot, st, err := startServer(dir)
	if err != nil {
		return err
	}
	c.spans.add(rid, "new", "warm", st[0], st[1])
	c.spans.add(rid, "prepare", "warm", st[1], st[2])
	news += st[1].Sub(st[0]).Seconds()
	preps += st[2].Sub(st[1]).Seconds()
	t.setups = append(t.setups, news+preps)
	t.news, t.preps = append(t.news, news), append(t.preps, preps)
	mark()
	if err := c.probe(exps, dir, rid, t); err != nil {
		hot.stop()
		return err
	}
	mark()

	warmRuns := make([]jobRun, warm)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	tw := time.Now()
	pid = c.spans.open(rid, "warm", "", tw)
	c.attempt(warm)
	var rejected atomic.Int64
	closedLoop(warm, func(i int) {
		exp := exps[i%len(exps)]
		j, err := hot.cl.job(exp, i/len(exps)%3)
		c.jobSpans(pid, exp, j, err)
		if err != nil {
			if errors.Is(err, errRejected) {
				rejected.Add(1)
			}
			c.fail(err)
			return
		}
		warmRuns[i] = j
	})
	te = time.Now()
	runtime.ReadMemStats(&m1)
	c.spans.close(pid, te)
	hot.stop()
	mark()
	t.warmRates = append(t.warmRates, float64(warm)/te.Sub(tw).Seconds())
	t.allocs = append(t.allocs, float64(m1.Mallocs-m0.Mallocs)/float64(warm))
	t.allocSizes = append(t.allocSizes, float64(m1.TotalAlloc-m0.TotalAlloc)/float64(warm))

	// Check: cold results against the oracle, warm bodies against cold.
	tk := time.Now()
	deduped, storeHits := 0, 0
	for i, j := range coldRuns {
		if j.body == nil {
			continue
		}
		var res struct{ Result json.RawMessage }
		if err := json.Unmarshal(j.body, &res); err != nil {
			c.fail(fmt.Errorf("%s: result body: %w", exps[i], err))
			continue
		}
		if err := c.oracle.check(exps[i], string(res.Result)); err != nil {
			c.fail(err)
		}
	}
	for i, j := range warmRuns {
		if j.body == nil {
			continue
		}
		if cj := coldRuns[i%len(exps)]; !bytes.Equal(j.body, cj.body) {
			c.fail(fmt.Errorf("warm job %d (%s): body differs from the cold result", i, exps[i%len(exps)]))
			continue
		}
		// A submission that attaches to a job reports that job's Cached
		// flag too, so only the first one of each key is a store hit.
		if j.status.Deduped {
			deduped++
		} else if j.status.Cached {
			storeHits++
		}
		d := j.latency()
		latency = append(latency, d)
		t.warmLatency = append(t.warmLatency, d)
		t.submit = append(t.submit, j.t[1].Sub(j.t[0]).Seconds())
		t.wait = append(t.wait, j.t[2].Sub(j.t[1]).Seconds())
		t.result = append(t.result, j.t[3].Sub(j.t[2]).Seconds())
	}
	if round == 0 {
		t.deduped, t.storeHits, t.rejected = deduped, storeHits, int(rejected.Load())
	} else if deduped != t.deduped || storeHits != t.storeHits {
		c.fail(fmt.Errorf("round %d: %d deduped and %d store hits, round 1 had %d and %d",
			round+1, deduped, storeHits, t.deduped, t.storeHits))
	}
	t.jobP50s = append(t.jobP50s, percentile(latency, 0.5))
	tkEnd := time.Now()
	c.spans.add(rid, "check", "", tk, tkEnd)
	t.checks = append(t.checks, tkEnd.Sub(tk).Seconds())
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	mark()
	c.spans.close(rid, marks[len(marks)-1])
	var parts []float64
	for k := 1; k < len(marks); k++ {
		parts = append(parts, marks[k].Sub(marks[k-1]).Seconds())
	}
	t.parts = append(t.parts, parts)
	return nil
}

// probe times the planning and store lookups the warm path is built on:
// Experiment.Plan for every cold experiment, and Store.Get for every
// design-point key those plans name, which the cold phase stored.
func (c *child) probe(exps []string, dir string, parent int, t *serveTally) error {
	store, err := resultcache.Open(dir, resultcache.ReadOnly)
	if err != nil {
		return err
	}
	var plans float64
	for _, name := range exps {
		e, err := harness.Lookup(name)
		if err != nil {
			return err
		}
		t0 := time.Now()
		p := e.Plan(&harness.Runner{}, harness.Quick)
		t1 := time.Now()
		c.spans.add(parent, "plan", name, t0, t1)
		plans += t1.Sub(t0).Seconds()
		c.attempt(len(p.Jobs))
		for _, j := range p.Jobs {
			g0 := time.Now()
			_, ok := store.Get(j.Key)
			g1 := time.Now()
			c.spans.add(parent, "get", name, g0, g1)
			if !ok {
				c.fail(fmt.Errorf("%s: design point %.12s missing from the warmed store", name, j.Key))
				continue
			}
			t.gets = append(t.gets, g1.Sub(g0).Seconds())
		}
	}
	t.plans = append(t.plans, plans)
	return nil
}

// jobSpans records a job's span and its submit, wait and result
// children, as far as the job got.
func (c *child) jobSpans(parent int, exp string, j jobRun, err error) {
	end := j.t[3]
	if err != nil {
		end = time.Now()
	}
	id := c.spans.open(parent, "job", exp, j.t[0])
	defer c.spans.close(id, end)
	for k, name := range []string{"submit", "wait", "result"} {
		if j.t[k+1].IsZero() {
			return
		}
		c.spans.add(id, name, exp, j.t[k], j.t[k+1])
	}
}
