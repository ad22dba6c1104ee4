// Job lifecycle: one accepted submission, from queued through running
// to done or failed. All mutable job state is guarded by the server's
// mutex; watchers (the NDJSON event stream) block on a
// closed-and-replaced change channel instead of polling.

package serve

import (
	"encoding/json"
	"fmt"

	"repro/internal/harness"
	"repro/internal/serve/api"
	"repro/internal/sweep"
)

// job is one accepted experiment run. Identical submissions share a
// job: the dedup map keys jobs by their serve-level cache key, so a
// job's ID names the computation, not the HTTP request that first
// triggered it.
type job struct {
	id         string
	key        string
	experiment string
	scale      string

	// Guarded by Server.mu.
	state   string
	done    int
	total   int
	cached  bool
	errMsg  string
	payload []byte // marshaled api.JobResult, served verbatim
	// changed closes on every state or progress transition and is
	// replaced with a fresh channel; watchers grab the current channel
	// under the lock and block on its close.
	changed chan struct{}
}

// status snapshots the job as wire JobStatus. Caller holds Server.mu.
func (j *job) status() api.JobStatus {
	return api.JobStatus{
		Schema:     api.SchemaVersion,
		ID:         j.id,
		Key:        j.key,
		Experiment: j.experiment,
		Scale:      j.scale,
		State:      j.state,
		Progress:   api.Progress{Done: j.done, Total: j.total},
		Cached:     j.cached,
		Error:      j.errMsg,
	}
}

// event snapshots the job as one NDJSON stream line. Caller holds
// Server.mu.
func (j *job) event() api.JobEvent {
	return api.JobEvent{
		Schema:   api.SchemaVersion,
		ID:       j.id,
		State:    j.state,
		Progress: api.Progress{Done: j.done, Total: j.total},
		Error:    j.errMsg,
	}
}

// terminal reports whether the job has finished (either way).
func (j *job) terminal() bool { return j.state == api.StateDone || j.state == api.StateFailed }

// notifyLocked wakes every watcher of j. Caller holds Server.mu.
func (j *job) notifyLocked() {
	close(j.changed)
	j.changed = make(chan struct{})
}

// runJob executes one non-cached job: acquire a worker slot, compute
// the experiment through the job's runner, release the slot,
// optionally write the result back to the serve-level store, and
// publish. Runs on its own goroutine. The slot is free before the job
// turns terminal, so a watcher that sees a job finish — either way —
// can count on its capacity being back.
func (s *Server) runJob(j *job, r *harness.Runner, e harness.Experiment, sc harness.Scale, writeBack bool) {
	s.sem <- struct{}{}
	s.setState(j, api.StateRunning)
	payload, err := computePayload(j.key, r, e, sc)
	<-s.sem
	if err != nil {
		s.fail(j, err.Error())
		return
	}
	if writeBack && s.cfg.Store != nil {
		s.cfg.Store.Put(j.key, payload)
	}
	s.finish(j, payload)
}

// computePayload computes an experiment and marshals its structured
// result as the api.JobResult served for key. A panic from the compute
// layer (sweep re-raises job panics) becomes an error instead of
// killing the server.
func computePayload(key string, r *harness.Runner, e harness.Experiment, sc harness.Scale) (payload []byte, err error) {
	defer func() {
		if p := recover(); p != nil {
			payload, err = nil, fmt.Errorf("experiment panicked: %v", p)
		}
	}()
	res, err := harness.ComputeResult(r, e, sc)
	if err != nil {
		return nil, err
	}
	payload, err = json.Marshal(api.JobResult{Schema: api.SchemaVersion, Key: key, Result: res})
	if err != nil {
		return nil, fmt.Errorf("encode result: %v", err)
	}
	return payload, nil
}

// setState transitions a job's lifecycle state.
func (s *Server) setState(j *job, state string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.state = state
	j.notifyLocked()
}

// tick advances a job's progress counter by one plan job, clamped to
// the plan size (single-flight waiters and shared design points can
// make per-point accounting approximate; completion always reports
// total/total).
func (s *Server) tick(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.done < j.total {
		j.done++
		j.notifyLocked()
	}
}

// finish publishes a job's result payload and marks it done.
func (s *Server) finish(j *job, payload []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.endLocked(j)
	j.payload = payload
	j.done = j.total
	j.state = api.StateDone
	j.notifyLocked()
}

// fail marks a job failed with an error message and releases its dedup
// key, so the next identical submission runs afresh instead of
// attaching to the failure. The failed job stays readable by its ID.
func (s *Server) fail(j *job, msg string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.endLocked(j)
	j.errMsg = msg
	j.state = api.StateFailed
	if s.byKey[j.key] == j {
		delete(s.byKey, j.key)
	}
	j.notifyLocked()
}

// endLocked releases j's admission count as it reaches a terminal
// state; a job that is already terminal released it before. Caller
// holds Server.mu.
func (s *Server) endLocked(j *job) {
	if !j.terminal() {
		s.pending--
	}
}

// progressCache is the sweep.Cache a job's runner computes through: it
// delegates to the per-design-point store (which may be absent) and
// ticks the job's progress on every point that resolves here — a cache
// hit or a computed-and-stored result. Wrapping even a nil inner cache
// keeps every serve job on the MapCachedN path, so the process-wide
// single-flight table dedupes shared design points across concurrent
// jobs regardless of cache mode.
type progressCache struct {
	s     *Server
	j     *job
	inner sweep.Cache
}

func (c progressCache) Get(key string) ([]byte, bool) {
	if c.inner == nil {
		return nil, false
	}
	payload, ok := c.inner.Get(key)
	if ok {
		c.s.tick(c.j)
	}
	return payload, ok
}

func (c progressCache) Put(key string, payload []byte) {
	if c.inner != nil {
		c.inner.Put(key, payload)
	}
	c.s.tick(c.j)
}

// roCache exposes a store read-only: per-request "ro" mode on a
// read-write server store.
type roCache struct{ inner sweep.Cache }

func (c roCache) Get(key string) ([]byte, bool) { return c.inner.Get(key) }
func (c roCache) Put(string, []byte)            {}
