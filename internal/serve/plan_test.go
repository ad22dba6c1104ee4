package serve

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/harness"
	"repro/internal/resultcache"
	"repro/internal/serve/api"
)

// TestServePlanMemoMatchesFresh resolves every registry experiment at
// both scales twice: the first plans it, the second reads the memo, and
// both must hold exactly the plan and serve key a fresh Plan computes.
func TestServePlanMemoMatchesFresh(t *testing.T) {
	pinVersion(t, "serve-test-memo")
	s := New(Config{})
	for _, e := range harness.All() {
		for _, sc := range []harness.Scale{harness.Quick, harness.Full} {
			first, err := s.resolve(e.Name, sc.String())
			if err != nil {
				t.Fatal(err)
			}
			memo, err := s.resolve(e.Name, sc.String())
			if err != nil {
				t.Fatal(err)
			}
			if memo != first {
				t.Errorf("%s/%s: the second resolve planned again", e.Name, sc)
			}
			fresh := e.Plan(&harness.Runner{}, sc)
			if memo.exp.Name != e.Name || memo.sc != sc || !reflect.DeepEqual(memo.plan, fresh) {
				t.Errorf("%s/%s: memoized plan differs from a fresh one", e.Name, sc)
			}
			if want := serveKey(e.Name, sc, fresh); memo.key != want {
				t.Errorf("%s/%s: memoized key %s, fresh %s", e.Name, sc, memo.key, want)
			}
		}
	}
	if want := 2 * len(harness.All()); len(s.plans) != want {
		t.Errorf("memo holds %d plans, want one per experiment and scale (%d)", len(s.plans), want)
	}
	if _, err := s.resolve("headlin", "quick"); err == nil {
		t.Error("an unknown experiment resolved")
	}
	if _, err := s.resolve("fig8", "huge"); err == nil {
		t.Error("an unknown scale resolved")
	}
	if want := 2 * len(harness.All()); len(s.plans) != want {
		t.Errorf("rejected submissions grew the memo to %d plans", len(s.plans))
	}
}

// TestServePlanMemoConcurrent resolves every quick experiment from
// several goroutines at once on a cold server: each must get the fresh
// serve key, whichever goroutine planned it.
func TestServePlanMemoConcurrent(t *testing.T) {
	pinVersion(t, "serve-test-concurrent")
	want := map[string]string{}
	for _, e := range harness.All() {
		want[e.Name] = serveKey(e.Name, harness.Quick, e.Plan(&harness.Runner{}, harness.Quick))
	}
	s := New(Config{})
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, e := range harness.All() {
				p, err := s.resolve(e.Name, "")
				if err != nil {
					t.Error(err)
					return
				}
				if p.key != want[e.Name] {
					t.Errorf("%s: key %s, want %s", e.Name, p.key, want[e.Name])
				}
			}
		}()
	}
	wg.Wait()
}

// TestServePlanMemoKeyedByCodeVersion switches the code version between
// two identical submissions to one server: the second must key afresh
// and start its own job instead of attaching to the first, and
// switching back must find the first job again.
func TestServePlanMemoKeyedByCodeVersion(t *testing.T) {
	pinVersion(t, "serve-test-v1")
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	req := api.JobRequest{Schema: api.SchemaVersion, Experiment: "table1"}
	first, code, body := postJob(t, ts, req)
	if code != http.StatusAccepted {
		t.Fatalf("first submit status %d: %s", code, body)
	}
	fig8v1, err := s.resolve("fig8", "quick")
	if err != nil {
		t.Fatal(err)
	}

	resultcache.SetCodeVersion("serve-test-v2")
	second, code, body := postJob(t, ts, req)
	if code != http.StatusAccepted || second.Deduped || second.ID == first.ID {
		t.Fatalf("submit after a version switch (%d) %+v, want a new job\n%s", code, second, body)
	}
	table1, _ := harness.Lookup("table1")
	if want := serveKey("table1", harness.Quick, table1.Plan(&harness.Runner{}, harness.Quick)); second.Key == first.Key || second.Key != want {
		t.Fatalf("key after a version switch %s (first %s), want %s", second.Key, first.Key, want)
	}
	fig8v2, err := s.resolve("fig8", "quick")
	if err != nil {
		t.Fatal(err)
	}
	if fig8v2.key == fig8v1.key || fig8v2.plan.Jobs[0].Key == fig8v1.plan.Jobs[0].Key {
		t.Fatal("fig8's serve and plan keys survived a version switch")
	}

	resultcache.SetCodeVersion("serve-test-v1")
	waitDone(t, ts, first.ID)
	again, code, _ := postJob(t, ts, req)
	if code != http.StatusOK || !again.Deduped || again.ID != first.ID {
		t.Fatalf("submit back at the first version (%d) %+v, want dedup onto %s", code, again, first.ID)
	}
}

// TestServeWarmValidateAllocs holds a warm submission's validation
// below the allocations of the one Plan it no longer makes.
func TestServeWarmValidateAllocs(t *testing.T) {
	pinVersion(t, "serve-test-allocs")
	e, err := harness.Lookup("headline")
	if err != nil {
		t.Fatal(err)
	}
	plan := testing.AllocsPerRun(20, func() { e.Plan(&harness.Runner{}, harness.Quick) })
	s := New(Config{})
	req := api.JobRequest{Schema: api.SchemaVersion, Experiment: "headline", Workers: 1}
	if _, err := s.validate(req); err != nil {
		t.Fatal(err)
	}
	warm := testing.AllocsPerRun(100, func() {
		if _, err := s.validate(req); err != nil {
			t.Fatal(err)
		}
	})
	if warm >= plan {
		t.Fatalf("a warm validate allocates %.0f times, one Plan %.0f", warm, plan)
	}
}

// BenchmarkServeWarmSubmit measures one warm POST /v1/jobs through the
// handler: the experiment's result is in the store, so the first
// submission is a store hit and every timed one attaches to its job.
func BenchmarkServeWarmSubmit(b *testing.B) {
	store, err := resultcache.Open(b.TempDir(), resultcache.ReadWrite)
	if err != nil {
		b.Fatal(err)
	}
	s := New(Config{Store: store, Workers: 1})
	req := api.JobRequest{Schema: api.SchemaVersion, Experiment: "headline"}
	a, err := s.validate(req)
	if err != nil {
		b.Fatal(err)
	}
	store.Put(a.key, []byte("{}"))
	body := `{"schema":"` + api.SchemaVersion + `","experiment":"headline"}`
	h := s.Handler()
	post := func() int {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
		return w.Code
	}
	if code := post(); code != http.StatusOK {
		b.Fatalf("store-hit submit status %d", code)
	}
	b.ReportAllocs()
	for b.Loop() {
		if code := post(); code != http.StatusOK {
			b.Fatalf("warm submit status %d", code)
		}
	}
}
