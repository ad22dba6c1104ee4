// Command pimmu-serve exposes the experiment harness as a long-lived
// HTTP service: clients POST jobs — (experiment, scale, engine class,
// cache mode) — and the server validates them against the
// harness registry, dedupes identical in-flight and completed
// submissions through the content-addressed result cache before they
// reach a worker, admission-controls a bounded worker pool, and
// streams per-job progress plus the final structured result.
//
// Usage:
//
//	pimmu-serve [-addr HOST:PORT] [-jobs N] [-queue N] [-workers N] [-cache-dir DIR] [-cache off|rw|ro] [-smoke EXPERIMENT]
//
// Endpoints (all bodies carry the serve/api schema stamp):
//
//	GET  /v1/experiments       the harness registry
//	POST /v1/jobs              submit one job (202 accepted, 200 deduped
//	                           or served from the store, 429 at capacity)
//	GET  /v1/jobs/{id}         lifecycle status
//	GET  /v1/jobs/{id}/result  the finished api.JobResult, verbatim bytes
//	GET  /v1/jobs/{id}/events  NDJSON progress stream until terminal
//
// -jobs bounds concurrently simulating jobs and -queue the accepted-
// but-not-yet-running backlog; submissions beyond jobs+queue are
// rejected with 429 so the load shows up at the client instead of as an
// unbounded queue. -workers sets the default per-job sweep parallelism
// (requests may override it). -cache-dir/-cache back the server with
// the same content-addressed store the CLIs use: completed serve jobs
// are stored whole (keyed without the worker count, so a result
// computed at one -workers value serves any other) and per-design-point
// results are shared with any CLI warming the same directory.
//
// -smoke EXPERIMENT boots the server on an ephemeral loopback port,
// drives one quick job through the real HTTP surface — submit, stream
// events, fetch the result — prints the result's text render, and
// exits; it is the self-test `make serve-smoke` runs.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"

	"repro/internal/resultcache"
	"repro/internal/serve"
	"repro/internal/serve/api"
)

// serveFlags is the parsed pimmu-serve flag set.
type serveFlags struct {
	addr     *string
	jobs     *int
	queue    *int
	workers  *int
	cacheDir *string
	cache    *string
	smoke    *string
}

// registerFlags registers every pimmu-serve flag on fs.
func registerFlags(fs *flag.FlagSet) *serveFlags {
	return &serveFlags{
		addr:     fs.String("addr", "localhost:8080", "listen address"),
		jobs:     fs.Int("jobs", 2, "max concurrently simulating jobs"),
		queue:    fs.Int("queue", 8, "max accepted-but-not-running jobs before 429"),
		workers:  fs.Int("workers", 0, "default sweep workers per job (0 = all CPUs)"),
		cacheDir: fs.String("cache-dir", "", "content-addressed result cache directory (empty = memoryless)"),
		cache:    fs.String("cache", "rw", "cache mode for -cache-dir: off, rw, or ro"),
		smoke:    fs.String("smoke", "", "self-test: run EXPERIMENT once through the HTTP surface and exit"),
	}
}

func main() {
	f := registerFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "pimmu-serve: unexpected arguments %v\n", flag.Args())
		os.Exit(2)
	}
	store, err := resultcache.OpenFlags(*f.cacheDir, *f.cache)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pimmu-serve: %v\n", err)
		os.Exit(2)
	}
	srv := serve.New(serve.Config{
		Store:     store,
		MaxActive: *f.jobs,
		MaxQueued: *f.queue,
		Workers:   *f.workers,
	})

	if *f.smoke != "" {
		if err := smoke(srv, *f.smoke); err != nil {
			fmt.Fprintf(os.Stderr, "pimmu-serve: smoke: %v\n", err)
			os.Exit(1)
		}
		return
	}

	ln, err := net.Listen("tcp", *f.addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pimmu-serve: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "pimmu-serve: listening on http://%s (schema %s)\n",
		ln.Addr(), api.SchemaVersion)
	if err := http.Serve(ln, srv.Handler()); err != nil {
		fmt.Fprintf(os.Stderr, "pimmu-serve: %v\n", err)
		os.Exit(1)
	}
}

// smoke drives one quick job of the named experiment through the real
// HTTP surface on an ephemeral loopback listener: submit, follow the
// event stream to a terminal state, fetch the result, print its text
// render. Any schema mismatch, failed job, or transport error is fatal
// — which is exactly what makes it a useful `make serve-smoke` gate.
func smoke(srv *serve.Server, experiment string) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	go http.Serve(ln, srv.Handler())
	base := "http://" + ln.Addr().String()

	st, err := postJob(base, api.JobRequest{
		Schema:     api.SchemaVersion,
		Experiment: experiment,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "pimmu-serve: smoke: %s accepted as %s (state %s, %d plan jobs)\n",
		experiment, st.ID, st.State, st.Progress.Total)

	if err := followEvents(base, st.ID); err != nil {
		return err
	}

	resp, err := http.Get(base + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var apiErr api.Error
		json.NewDecoder(resp.Body).Decode(&apiErr)
		return fmt.Errorf("result: HTTP %d: %s", resp.StatusCode, apiErr.Error)
	}
	var jr api.JobResult
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		return fmt.Errorf("result: %w", err)
	}
	if err := api.CheckSchema(jr.Schema); err != nil {
		return fmt.Errorf("result: %w", err)
	}
	os.Stdout.WriteString(jr.Result.Text)
	return nil
}

// postJob submits one job and decodes the accepted/deduped status.
func postJob(base string, req api.JobRequest) (api.JobStatus, error) {
	var st api.JobStatus
	body, err := json.Marshal(req)
	if err != nil {
		return st, err
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		var apiErr api.Error
		json.NewDecoder(resp.Body).Decode(&apiErr)
		return st, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, apiErr.Error)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("submit: %w", err)
	}
	return st, nil
}

// followEvents consumes the job's NDJSON stream until a terminal event,
// echoing each transition to stderr.
func followEvents(base, id string) error {
	resp, err := http.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	for {
		var ev api.JobEvent
		if err := dec.Decode(&ev); err != nil {
			return fmt.Errorf("events: %w", err)
		}
		fmt.Fprintf(os.Stderr, "pimmu-serve: smoke: %s %s %d/%d\n",
			ev.ID, ev.State, ev.Progress.Done, ev.Progress.Total)
		switch ev.State {
		case api.StateDone:
			return nil
		case api.StateFailed:
			return fmt.Errorf("job failed: %s", ev.Error)
		}
	}
}
