// Package serve is the simulation-as-a-service front end: an HTTP
// server that accepts experiment jobs — (experiment, scale, workers,
// cache mode) — validates them against the harness registry,
// dedupes identical in-flight and completed submissions through the
// content-addressed result cache *before* they reach a worker, admission-
// controls a bounded sweep-backed worker pool, and streams per-job
// progress plus the final structured result.
//
// The serving contract rides the repository's two load-bearing
// invariants. Determinism: identical (experiment, scale, config) inputs
// produce byte-identical results at every worker count, so a cached
// payload is indistinguishable from a fresh computation and the server
// can serve stored bytes verbatim. Content-addressed keys: a job's serve
// key binds the code version and every planned design-point key, so
// "same request" is decidable before simulating — two submissions with
// equal keys cost one simulation, whether they arrive concurrently
// (single-flight on the in-flight job) or a week apart (the
// completed-result store).
//
// This package deliberately never imports internal/system (enforced by
// cmd/pimmu-lint): the harness Runner is its only path to simulation.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"repro/internal/harness"
	"repro/internal/resultcache"
	"repro/internal/serve/api"
	"repro/internal/sweep"
)

// Config sizes a Server.
type Config struct {
	// Store is the content-addressed result store backing both dedup
	// levels: completed serve jobs (keyed by serve key) and per-design-
	// point sweep results (keyed by plan keys). nil runs the server
	// memoryless — in-flight dedup still applies.
	Store *resultcache.Store
	// MaxActive bounds concurrently simulating jobs (default 2).
	MaxActive int
	// MaxQueued bounds accepted-but-not-yet-running jobs; submissions
	// beyond MaxActive+MaxQueued are rejected with 429 (default 8).
	MaxQueued int
	// Workers is the default sweep worker count per job (0 = the
	// process-wide sweep default); requests may override it.
	Workers int
}

// Server implements the /v1 job API. Construct with New, serve via
// Handler.
type Server struct {
	cfg Config
	mux *http.ServeMux
	sem chan struct{} // worker slots: len == running jobs

	mu      sync.Mutex
	jobs    map[string]*job // by ID
	byKey   map[string]*job // dedup: serve key -> job (in-flight or done; never failed)
	pending int             // accepted jobs queued or running; store hits never count
	nextID  int
}

// New builds a Server with cfg's bounds applied (zero values select the
// documented defaults).
func New(cfg Config) *Server {
	if cfg.MaxActive <= 0 {
		cfg.MaxActive = 2
	}
	if cfg.MaxQueued <= 0 {
		cfg.MaxQueued = 8
	}
	s := &Server{
		cfg:   cfg,
		mux:   http.NewServeMux(),
		sem:   make(chan struct{}, cfg.MaxActive),
		jobs:  make(map[string]*job),
		byKey: make(map[string]*job),
	}
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	return s
}

// Handler is the server's HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// writeJSON writes one JSON body with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// writeErr writes the uniform error body.
func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, api.Error{Schema: api.SchemaVersion, Error: fmt.Sprintf(format, args...)})
}

// handleExperiments lists the registry in paper order.
func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	list := api.ExperimentList{Schema: api.SchemaVersion}
	for _, e := range harness.All() {
		list.Experiments = append(list.Experiments, api.ExperimentInfo{Name: e.Name, Brief: e.Brief})
	}
	writeJSON(w, http.StatusOK, list)
}

// accepted is a validated submission resolved to everything needed to
// run or dedupe it.
type accepted struct {
	exp         harness.Experiment
	sc          harness.Scale
	runner      *harness.Runner
	plan        harness.Plan
	key         string
	mode        resultcache.Mode
	pointShared sweep.Cache // mode-wrapped per-design-point store (nil when off)
}

// validate turns a JobRequest into an accepted run or a client error.
func (s *Server) validate(req api.JobRequest) (accepted, error) {
	var a accepted
	if err := api.CheckSchema(req.Schema); err != nil {
		return a, err
	}
	exp, err := harness.Lookup(req.Experiment)
	if err != nil {
		return a, err
	}
	sc, err := harness.ParseScale(req.Scale)
	if err != nil {
		return a, err
	}
	mode := req.Cache
	if mode == "" {
		mode = "rw"
	}
	parsedMode, err := resultcache.ParseMode(mode)
	if err != nil {
		return a, err
	}
	if req.Workers < 0 {
		return a, fmt.Errorf("workers %d (want >= 0)", req.Workers)
	}
	workers := req.Workers
	if workers == 0 {
		workers = s.cfg.Workers
	}
	a.exp, a.sc = exp, sc
	a.runner = &harness.Runner{Workers: workers}
	a.plan = exp.Plan(a.runner, sc)
	a.key = serveKey(exp.Name, sc, a.plan)
	a.mode = parsedMode
	a.pointShared = s.pointCache(parsedMode)
	return a, nil
}

// serveKey is the dedup identity of one submission: the code version,
// the experiment, the scale, and every planned design-point key. Worker
// counts reach no key, so submissions differing only in workers share a
// key — and therefore a simulation.
func serveKey(experiment string, sc harness.Scale, p harness.Plan) string {
	keys := make([]string, len(p.Jobs))
	for i, j := range p.Jobs {
		keys[i] = j.Key
	}
	return resultcache.KeyOf("serve/v1", resultcache.CodeVersion(),
		experiment, sc.String(), strings.Join(keys, "\x00"))
}

// pointCache applies a request's cache mode to the server's store for
// per-design-point reads/writes: off disables it entirely, ro reads
// through without writing, rw passes through (the store's own mode
// still applies — an ro-opened store never writes).
func (s *Server) pointCache(mode resultcache.Mode) sweep.Cache {
	if s.cfg.Store == nil || mode == resultcache.Off {
		return nil
	}
	if mode == resultcache.ReadOnly {
		return roCache{inner: s.cfg.Store}
	}
	return s.cfg.Store
}

// handleSubmit accepts one job: validate, dedupe against in-flight and
// completed work, admission-check, then start. Responses: 200 for a
// dedup attach or a store hit (the work already exists), 202 for a
// newly started job, 400 for invalid requests, 429 over capacity.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := decodeJobRequest(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	a, err := s.validate(req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	st, code, err := s.submit(a)
	if err != nil {
		writeErr(w, code, "%v", err)
		return
	}
	writeJSON(w, code, st)
}

// decodeJobRequest reads a request body holding exactly one JSON
// value. Unknown fields are ignored (clients may still send retired
// ones); anything after the value is an error.
func decodeJobRequest(body io.Reader) (api.JobRequest, error) {
	var req api.JobRequest
	dec := json.NewDecoder(body)
	if err := dec.Decode(&req); err != nil {
		return req, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return req, errors.New("trailing data after the request object")
	}
	return req, nil
}

// submit dedupes a validated submission against in-flight and
// completed work, admission-checks it, and starts it. It returns the
// job's status with the HTTP code to answer: 200 for a dedup attach or
// a store hit, 202 for a newly started job, or 429 with an error over
// capacity.
func (s *Server) submit(a accepted) (api.JobStatus, int, error) {
	s.mu.Lock()
	// Level 1: an identical job is already accepted (queued, running, or
	// completed this process) — attach to it.
	if j, ok := s.byKey[a.key]; ok {
		st := j.status()
		st.Deduped = true
		s.mu.Unlock()
		return st, http.StatusOK, nil
	}
	// Level 2: an identical job completed in some earlier process — the
	// store holds its full payload; serve it without simulating. Gated
	// on the request's cache mode: "off" forces a fresh computation.
	if a.mode != resultcache.Off && s.cfg.Store != nil {
		if payload, ok := s.cfg.Store.Get(a.key); ok {
			j := s.newJobLocked(a)
			j.state = api.StateDone
			j.cached = true
			j.done = j.total
			j.payload = payload
			st := j.status()
			s.mu.Unlock()
			return st, http.StatusOK, nil
		}
	}
	// Admission: bound accepted-but-unfinished jobs.
	if limit := s.cfg.MaxActive + s.cfg.MaxQueued; s.pending >= limit {
		pending := s.pending
		s.mu.Unlock()
		return api.JobStatus{}, http.StatusTooManyRequests,
			fmt.Errorf("at capacity: %d jobs pending (max %d)", pending, limit)
	}
	j := s.newJobLocked(a)
	s.pending++
	s.mu.Unlock()

	a.runner.Cache = progressCache{s: s, j: j, inner: a.pointShared}
	go s.runJob(j, a.runner, a.exp, a.sc, a.mode == resultcache.ReadWrite)
	return s.statusOf(j), http.StatusAccepted, nil
}

// newJobLocked registers a fresh queued job for a. Caller holds s.mu.
func (s *Server) newJobLocked(a accepted) *job {
	s.nextID++
	j := &job{
		id:         fmt.Sprintf("job-%d", s.nextID),
		key:        a.key,
		experiment: a.exp.Name,
		scale:      a.sc.String(),
		state:      api.StateQueued,
		total:      len(a.plan.Jobs),
		changed:    make(chan struct{}),
	}
	s.jobs[j.id] = j
	s.byKey[a.key] = j
	return j
}

// statusOf snapshots a job's wire status.
func (s *Server) statusOf(j *job) api.JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.status()
}

// lookupJob resolves a path ID, writing 404 on miss.
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) (*job, bool) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
	}
	return j, ok
}

// handleStatus reports one job's lifecycle position.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, s.statusOf(j))
}

// handleResult serves a finished job's payload verbatim — the bytes are
// the stored/marshaled api.JobResult, identical for every submission
// that shares the job's key.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	state, errMsg, payload := j.state, j.errMsg, j.payload
	s.mu.Unlock()
	switch state {
	case api.StateFailed:
		writeErr(w, http.StatusInternalServerError, "job failed: %s", errMsg)
	case api.StateDone:
		w.Header().Set("Content-Type", "application/json")
		w.Write(payload)
	default:
		writeErr(w, http.StatusConflict, "job is %s; result not ready", state)
	}
}

// handleEvents streams a job's transitions as NDJSON JobEvent lines,
// flushing each, until the job reaches a terminal state or the client
// disconnects. Watchers block on the job's change channel — no polling.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		s.mu.Lock()
		ev := j.event()
		terminal := j.terminal()
		ch := j.changed
		s.mu.Unlock()
		if err := enc.Encode(ev); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		if terminal {
			return
		}
		select {
		case <-ch:
		case <-r.Context().Done():
			return
		}
	}
}
