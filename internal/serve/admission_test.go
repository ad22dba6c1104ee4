package serve

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/resultcache"
	"repro/internal/serve/api"
)

// fakeSubmission is a validated submission of an experiment outside the
// registry: it plans no design points, and its compute phase runs fn.
func fakeSubmission(name string, mode resultcache.Mode, fn func()) accepted {
	e := harness.Experiment{
		Name:    name,
		Plan:    func(*harness.Runner, harness.Scale) harness.Plan { return harness.Plan{Experiment: name} },
		Compute: func(*harness.Runner, harness.Scale) any { fn(); return name },
		Render:  func(w io.Writer, _ harness.Scale, _ any) { fmt.Fprintln(w, name) },
	}
	p := e.Plan(&harness.Runner{}, harness.Quick)
	return accepted{planned: &planned{exp: e, sc: harness.Quick, plan: p,
		key: serveKey(name, harness.Quick, p)}, mode: mode}
}

// awaitTerminal blocks on a job's change channel until it is done or
// failed.
func awaitTerminal(t *testing.T, s *Server, id string) api.JobStatus {
	t.Helper()
	deadline := time.After(time.Minute)
	for {
		s.mu.Lock()
		j := s.jobs[id]
		st, ch, terminal := j.status(), j.changed, j.terminal()
		s.mu.Unlock()
		if terminal {
			return st
		}
		select {
		case <-ch:
		case <-deadline:
			t.Fatalf("job %s never finished: %+v", id, st)
		}
	}
}

// checkIdle asserts that no job holds a worker slot or an admission
// count.
func checkIdle(t *testing.T, s *Server) {
	t.Helper()
	s.mu.Lock()
	pending := s.pending
	s.mu.Unlock()
	if pending != 0 || len(s.sem) != 0 {
		t.Fatalf("server not idle: %d pending, %d worker slots held", pending, len(s.sem))
	}
}

// TestServeFailedJobReleasesCapacity runs a job whose compute panics:
// the job must fail rather than kill the server, and give back both its
// worker slot and its admission count, so a full MaxActive+MaxQueued
// batch is admitted afterwards. A store hit never takes an admission
// count at all.
func TestServeFailedJobReleasesCapacity(t *testing.T) {
	pinVersion(t, "serve-test-panic")
	store := openStore(t, t.TempDir())
	s := New(Config{Store: store, MaxActive: 1, MaxQueued: 2})
	limit := s.cfg.MaxActive + s.cfg.MaxQueued

	st, code, err := s.submit(fakeSubmission("panics", resultcache.Off, func() { panic("boom") }))
	if err != nil || code != http.StatusAccepted {
		t.Fatalf("panicking job: status %d, %v", code, err)
	}
	if f := awaitTerminal(t, s, st.ID); f.State != api.StateFailed || !strings.Contains(f.Error, "panicked: boom") {
		t.Fatalf("panicking job ended as %+v", f)
	}
	checkIdle(t, s)

	hit := fakeSubmission("stored", resultcache.ReadWrite, func() { t.Error("store hit computed") })
	store.Put(hit.key, []byte(`{}`))
	if st, code, err := s.submit(hit); err != nil || code != http.StatusOK || !st.Cached {
		t.Fatalf("store hit: status %d cached=%v, %v", code, st.Cached, err)
	}
	checkIdle(t, s)

	release := make(chan struct{})
	ids := make([]string, limit)
	for i := range ids {
		st, code, err := s.submit(fakeSubmission(fmt.Sprintf("block-%d", i), resultcache.Off, func() { <-release }))
		if err != nil || code != http.StatusAccepted {
			close(release)
			t.Fatalf("batch job %d of %d after the failure: status %d, %v", i+1, limit, code, err)
		}
		ids[i] = st.ID
	}
	if _, code, err := s.submit(fakeSubmission("over", resultcache.Off, func() {})); code != http.StatusTooManyRequests || err == nil {
		close(release)
		t.Fatalf("job past capacity: status %d, %v; want 429", code, err)
	}
	close(release)
	for _, id := range ids {
		if f := awaitTerminal(t, s, id); f.State != api.StateDone {
			t.Fatalf("batch job ended as %+v", f)
		}
	}
	checkIdle(t, s)
}

// TestServeFailedJobReleasesKey runs a job that panics on its first run
// only. The failure must not pin its key: an identical resubmission
// starts a new job, which succeeds and is what later submissions attach
// to, while the failed job stays readable by its ID.
func TestServeFailedJobReleasesKey(t *testing.T) {
	pinVersion(t, "serve-test-retry")
	s := New(Config{MaxActive: 1, MaxQueued: 1})
	var runs atomic.Int32
	flaky := func() accepted {
		return fakeSubmission("flaky", resultcache.Off, func() {
			if runs.Add(1) == 1 {
				panic("first run")
			}
		})
	}

	first, code, err := s.submit(flaky())
	if err != nil || code != http.StatusAccepted {
		t.Fatalf("first submission: status %d, %v", code, err)
	}
	if f := awaitTerminal(t, s, first.ID); f.State != api.StateFailed {
		t.Fatalf("first run ended as %+v", f)
	}

	retry, code, err := s.submit(flaky())
	if err != nil || code != http.StatusAccepted || retry.ID == first.ID || retry.Deduped {
		t.Fatalf("resubmission after a failure: status %d id %s (failed %s) deduped=%v, %v; want 202 and a new job",
			code, retry.ID, first.ID, retry.Deduped, err)
	}
	if f := awaitTerminal(t, s, retry.ID); f.State != api.StateDone {
		t.Fatalf("retried job ended as %+v", f)
	}
	if f := awaitTerminal(t, s, first.ID); f.State != api.StateFailed {
		t.Fatalf("failed job now reads %+v", f)
	}

	again, code, err := s.submit(flaky())
	if err != nil || code != http.StatusOK || again.ID != retry.ID || !again.Deduped {
		t.Fatalf("submission after the retry: status %d id %s deduped=%v, %v; want 200 attached to %s",
			code, again.ID, again.Deduped, err, retry.ID)
	}
	if n := runs.Load(); n != 2 {
		t.Errorf("experiment ran %d times, want 2", n)
	}
	checkIdle(t, s)
}
