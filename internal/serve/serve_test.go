package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/resultcache"
	"repro/internal/serve/api"
)

// pinVersion makes the code-version stamp deterministic for one test.
func pinVersion(t *testing.T, v string) {
	t.Helper()
	resultcache.SetCodeVersion(v)
	t.Cleanup(func() { resultcache.SetCodeVersion("") })
}

// openStore opens a read-write store rooted in dir.
func openStore(t *testing.T, dir string) *resultcache.Store {
	t.Helper()
	store, err := resultcache.Open(dir, resultcache.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// startServer boots a test server over a fresh Server with cfg.
func startServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(cfg).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// postJob submits a request body and decodes the response as JobStatus
// (on 2xx) or returns the error body text.
func postJob(t *testing.T, ts *httptest.Server, req api.JobRequest) (api.JobStatus, int, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode >= 300 {
		return api.JobStatus{}, resp.StatusCode, buf.String()
	}
	var st api.JobStatus
	if err := json.Unmarshal(buf.Bytes(), &st); err != nil {
		t.Fatalf("decode status (%d): %v\n%s", resp.StatusCode, err, buf.String())
	}
	return st, resp.StatusCode, buf.String()
}

// waitDone polls a job's status until it reaches a terminal state.
func waitDone(t *testing.T, ts *httptest.Server, id string) api.JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st api.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == api.StateDone || st.State == api.StateFailed {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q", id, st.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// fetchResult reads a finished job's result body verbatim.
func fetchResult(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status %d: %s", resp.StatusCode, buf.String())
	}
	return buf.Bytes()
}

func TestServeExperimentList(t *testing.T) {
	ts := startServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list api.ExperimentList
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if list.Schema != api.SchemaVersion {
		t.Fatalf("schema %q", list.Schema)
	}
	if len(list.Experiments) != len(harness.All()) {
		t.Fatalf("%d experiments listed, registry has %d", len(list.Experiments), len(harness.All()))
	}
	if list.Experiments[0].Name != "table1" || list.Experiments[0].Brief == "" {
		t.Fatalf("first entry %+v", list.Experiments[0])
	}
}

func TestServeRejectsBadRequests(t *testing.T) {
	ts := startServer(t, Config{})
	cases := []struct {
		name string
		req  api.JobRequest
		want string // substring of the error body
	}{
		{"schema mismatch", api.JobRequest{Schema: "pimmu-serve/v0", Experiment: "fig8"}, api.SchemaVersion},
		{"schema missing", api.JobRequest{Experiment: "fig8"}, api.SchemaVersion},
		{"unknown experiment near miss", api.JobRequest{Schema: api.SchemaVersion, Experiment: "headlin"},
			`did you mean \"headline\"?`},
		{"bad scale", api.JobRequest{Schema: api.SchemaVersion, Experiment: "fig8", Scale: "huge"}, "unknown scale"},
		{"bad shards", api.JobRequest{Schema: api.SchemaVersion, Experiment: "fig8", Shards: "many"}, "shards"},
		{"negative shards", api.JobRequest{Schema: api.SchemaVersion, Experiment: "fig8", Shards: "-2"}, "shard count"},
		{"bad cache mode", api.JobRequest{Schema: api.SchemaVersion, Experiment: "fig8", Cache: "maybe"}, "cache mode"},
		{"negative workers", api.JobRequest{Schema: api.SchemaVersion, Experiment: "fig8", Workers: -1}, "workers"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, code, body := postJob(t, ts, tc.req)
			if code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400\n%s", code, body)
			}
			if !strings.Contains(body, tc.want) {
				t.Fatalf("error body %q missing %q", body, tc.want)
			}
			var e api.Error
			if err := json.Unmarshal([]byte(body), &e); err != nil || e.Schema != api.SchemaVersion {
				t.Fatalf("error body not a schema-stamped api.Error: %s", body)
			}
		})
	}
}

// TestServeIgnoresRetiredCoreLanes pins compatibility with clients that
// still send the retired core_lanes field: the decoder ignores it.
func TestServeIgnoresRetiredCoreLanes(t *testing.T) {
	ts := startServer(t, Config{})
	body := `{"schema":"` + api.SchemaVersion + `","experiment":"table1","shards":"auto","core_lanes":"2"}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want the job accepted", resp.StatusCode)
	}
}

func TestServeUnknownJob(t *testing.T) {
	ts := startServer(t, Config{})
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/result", "/v1/jobs/nope/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestServeStaticExperiment runs the full submit/status/result/events
// cycle on a plan-zero-jobs experiment (table1) — fast enough for every
// tier — and checks the structured result against a direct harness
// render.
func TestServeStaticExperiment(t *testing.T) {
	pinVersion(t, "serve-test-static")
	ts := startServer(t, Config{Store: openStore(t, t.TempDir())})
	st, code, body := postJob(t, ts, api.JobRequest{Schema: api.SchemaVersion, Experiment: "table1"})
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", code, body)
	}
	if st.Experiment != "table1" || st.Scale != "quick" || st.Key == "" || st.Progress.Total != 0 {
		t.Fatalf("submit status %+v", st)
	}
	final := waitDone(t, ts, st.ID)
	if final.State != api.StateDone {
		t.Fatalf("final state %+v", final)
	}

	var res api.JobResult
	payload := fetchResult(t, ts, st.ID)
	if err := json.Unmarshal(payload, &res); err != nil {
		t.Fatal(err)
	}
	if res.Schema != api.SchemaVersion || res.Key != st.Key {
		t.Fatalf("result envelope %+v", res)
	}
	if err := api.CheckSchema(res.Result.Schema); err != nil {
		t.Fatal(err)
	}
	e, err := harness.Lookup("table1")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := harness.ComputeResult(&harness.Runner{}, e, harness.Quick)
	if err != nil {
		t.Fatal(err)
	}
	if res.Result.Text != direct.Text {
		t.Fatalf("served text differs from direct render:\n%q\n%q", res.Result.Text, direct.Text)
	}

	// The events stream of a finished job emits its terminal event and
	// closes.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var last api.JobEvent
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines++
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("event line %d: %v", lines, err)
		}
	}
	if lines == 0 || last.State != api.StateDone || last.Schema != api.SchemaVersion {
		t.Fatalf("event stream ended after %d lines with %+v", lines, last)
	}

	// An in-process resubmission attaches to the completed job.
	again, code, _ := postJob(t, ts, api.JobRequest{Schema: api.SchemaVersion, Experiment: "table1"})
	if code != http.StatusOK || !again.Deduped || again.ID != st.ID {
		t.Fatalf("resubmit (%d) %+v, want dedup onto %s", code, again, st.ID)
	}
}

// TestServeDedupAndTopologyIdentity is the acceptance test: a cold
// submit simulates once; concurrent identical submissions share that
// one job; warm resubmits — including from a fresh server process at a
// different shard count in the same engine class — serve the stored
// payload with zero additional simulations; and a cold recompute at
// that shard count yields byte-identical response bodies.
func TestServeDedupAndTopologyIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed; skipped in -short")
	}
	pinVersion(t, "serve-test-dedup")
	store := openStore(t, t.TempDir())
	ts := startServer(t, Config{Store: store, MaxActive: 2})
	req := api.JobRequest{Schema: api.SchemaVersion, Experiment: "fig8", Scale: "quick", Shards: "1"}

	// Two concurrent identical submissions: exactly one creates the job,
	// the other attaches to it (whichever order the server serializes
	// them in), and both name the same job ID.
	type submission struct {
		st   api.JobStatus
		code int
	}
	results := make([]submission, 2)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, code, body := postJob(t, ts, req)
			if code != http.StatusAccepted && code != http.StatusOK {
				t.Errorf("submission %d: status %d: %s", i, code, body)
			}
			results[i] = submission{st, code}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if results[0].st.ID != results[1].st.ID {
		t.Fatalf("concurrent identical submissions made two jobs: %+v vs %+v", results[0].st, results[1].st)
	}
	deduped := 0
	for _, r := range results {
		if r.st.Deduped {
			deduped++
		}
	}
	if deduped != 1 {
		t.Fatalf("%d of 2 submissions flagged deduped, want exactly 1", deduped)
	}

	id := results[0].st.ID
	final := waitDone(t, ts, id)
	if final.State != api.StateDone {
		t.Fatalf("job failed: %+v", final)
	}
	if final.Progress.Done != final.Progress.Total || final.Progress.Total == 0 {
		t.Fatalf("finished progress %+v", final.Progress)
	}
	cold := fetchResult(t, ts, id)
	coldStores := store.Stats().Stores
	// One store per planned design point plus the serve-level payload.
	if want := uint64(final.Progress.Total + 1); coldStores != want {
		t.Fatalf("cold run stored %d entries, want %d (%d plan jobs + serve payload)",
			coldStores, want, final.Progress.Total)
	}

	// Warm resubmit on the same server: attaches in-process, zero new
	// simulation.
	warm, code, _ := postJob(t, ts, req)
	if code != http.StatusOK || !warm.Deduped || warm.ID != id {
		t.Fatalf("warm resubmit (%d) %+v", code, warm)
	}

	// Warm resubmit from a fresh server process sharing the store, at a
	// different shard count and worker count: the serve key carries only
	// the engine class, so the stored payload serves without simulating.
	ts2 := startServer(t, Config{Store: store})
	req2 := req
	req2.Shards = "4"
	req2.Workers = 2
	st2, code, body := postJob(t, ts2, req2)
	if code != http.StatusOK {
		t.Fatalf("cross-shard warm submit status %d: %s", code, body)
	}
	if !st2.Cached || st2.State != api.StateDone {
		t.Fatalf("cross-shard warm submit not served from store: %+v", st2)
	}
	warmBody := fetchResult(t, ts2, st2.ID)
	if !bytes.Equal(cold, warmBody) {
		t.Fatalf("stored payload differs from cold body:\n%s\n%s", cold, warmBody)
	}
	if got := store.Stats().Stores; got != coldStores {
		t.Fatalf("warm serving wrote %d new entries", got-coldStores)
	}

	// Cold recompute at a different shard count (fresh store, so nothing
	// can be served): the response body must be byte-identical — the
	// determinism contract, visible at the API boundary.
	ts3 := startServer(t, Config{Store: openStore(t, t.TempDir())})
	st3, code, body := postJob(t, ts3, req2)
	if code != http.StatusAccepted {
		t.Fatalf("cold cross-shard submit status %d: %s", code, body)
	}
	if f := waitDone(t, ts3, st3.ID); f.State != api.StateDone {
		t.Fatalf("cross-shard job failed: %+v", f)
	}
	recomputed := fetchResult(t, ts3, st3.ID)
	if !bytes.Equal(cold, recomputed) {
		t.Fatalf("recomputed body at shards=4 differs from shards=1 body:\n%s\n%s",
			cold, recomputed)
	}
}

// TestServeCacheOffRecomputes pins the mode contract: cache "off"
// bypasses the store both ways (no read, no write) while in-flight
// dedup still applies.
func TestServeCacheOffRecomputes(t *testing.T) {
	pinVersion(t, "serve-test-off")
	store := openStore(t, t.TempDir())
	ts := startServer(t, Config{Store: store})
	req := api.JobRequest{Schema: api.SchemaVersion, Experiment: "table1", Cache: "off"}
	st, code, body := postJob(t, ts, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", code, body)
	}
	if f := waitDone(t, ts, st.ID); f.State != api.StateDone {
		t.Fatalf("job failed: %+v", f)
	}
	if got := store.Stats().Stores; got != 0 {
		t.Fatalf("cache off wrote %d store entries", got)
	}
	// ro serves reads but never writes. A different scale gives the job
	// its own serve key — the first job would otherwise satisfy this
	// submission via in-process dedup before any store traffic happens
	// (table1 is static, so "full" costs nothing extra).
	req.Cache = "ro"
	req.Scale = "full"
	st2, code, body := postJob(t, ts, req)
	if code != http.StatusAccepted {
		t.Fatalf("ro submit status %d: %s", code, body)
	}
	if f := waitDone(t, ts, st2.ID); f.State != api.StateDone {
		t.Fatalf("ro job failed: %+v", f)
	}
	if got := store.Stats().Stores; got != 0 {
		t.Fatalf("cache ro wrote %d store entries", got)
	}
}

// TestServeAdmissionControl pins the 429 path: with one worker slot and
// no queue, a second distinct job is rejected while the first runs.
func TestServeAdmissionControl(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed; skipped in -short")
	}
	pinVersion(t, "serve-test-admission")
	// MaxQueued <= 0 selects the default bound, so the zero-queue setup
	// is forced directly (same-package test).
	srv := New(Config{MaxActive: 1})
	srv.cfg.MaxQueued = 0
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	first, code, body := postJob(t, ts, api.JobRequest{Schema: api.SchemaVersion, Experiment: "fig8", Shards: "1"})
	if code != http.StatusAccepted {
		t.Fatalf("first submit status %d: %s", code, body)
	}
	_, code, body = postJob(t, ts, api.JobRequest{Schema: api.SchemaVersion, Experiment: "table1"})
	if code != http.StatusTooManyRequests {
		t.Fatalf("second submit status %d, want 429: %s", code, body)
	}
	var e api.Error
	if err := json.Unmarshal([]byte(body), &e); err != nil || !strings.Contains(e.Error, "capacity") {
		t.Fatalf("429 body %q", body)
	}
	if f := waitDone(t, ts, first.ID); f.State != api.StateDone {
		t.Fatalf("first job failed: %+v", f)
	}
	// Capacity freed: the same request is now accepted.
	_, code, body = postJob(t, ts, api.JobRequest{Schema: api.SchemaVersion, Experiment: "table1"})
	if code != http.StatusAccepted {
		t.Fatalf("post-drain submit status %d: %s", code, body)
	}
}

// TestServeEventsStreamProgress watches a simulating job's NDJSON
// stream end-to-end: states move forward, progress is monotonic, and
// the stream terminates on done.
func TestServeEventsStreamProgress(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed; skipped in -short")
	}
	pinVersion(t, "serve-test-events")
	ts := startServer(t, Config{Store: openStore(t, t.TempDir())})
	st, code, body := postJob(t, ts, api.JobRequest{Schema: api.SchemaVersion, Experiment: "fig8", Shards: "1"})
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", code, body)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	rank := map[string]int{api.StateQueued: 0, api.StateRunning: 1, api.StateDone: 2, api.StateFailed: 2}
	lastRank, lastDone := -1, -1
	var last api.JobEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("event line: %v", err)
		}
		if r := rank[last.State]; r < lastRank {
			t.Fatalf("state went backwards: %+v", last)
		} else {
			lastRank = r
		}
		if last.Progress.Done < lastDone {
			t.Fatalf("progress went backwards: %+v", last)
		}
		lastDone = last.Progress.Done
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if last.State != api.StateDone {
		t.Fatalf("stream ended in %+v", last)
	}
	if last.Progress.Done != last.Progress.Total || last.Progress.Total == 0 {
		t.Fatalf("final progress %+v", last.Progress)
	}
}
