package harness

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/resultcache"
)

// staticPlans names the experiments that plan zero jobs: pure
// configuration snapshots with nothing to simulate.
var staticPlans = map[string]bool{"table1": true, "area": true}

// Plans are pure enumeration: two enumerations of the same experiment
// at the same scale must be identical, jobs and keys included.
func TestPlansDeterministic(t *testing.T) {
	r := &Runner{}
	for _, e := range All() {
		for _, sc := range []Scale{Quick, Full} {
			a := e.Plan(r, sc)
			b := e.Plan(r, sc)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s/%v: two plan enumerations differ", e.Name, sc)
			}
			if a.Experiment != e.Name {
				t.Errorf("%s/%v: plan names experiment %q", e.Name, sc, a.Experiment)
			}
			if staticPlans[e.Name] != (len(a.Jobs) == 0) {
				t.Errorf("%s/%v: %d jobs, static=%v", e.Name, sc, len(a.Jobs), staticPlans[e.Name])
			}
		}
	}
}

// Every job key is non-empty and unique within its plan — a collision
// inside one plan would make two different points serve each other's
// cached results. (Keys MAY coincide across plans and scales: fig13a
// and fig13b share their uncontended reference point, and a Full sweep
// legitimately reuses the Quick sweep's sizes — the key addresses the
// computation, not the experiment.)
func TestPlanKeysUniqueWithinPlan(t *testing.T) {
	resultcache.SetCodeVersion("plan-test")
	defer resultcache.SetCodeVersion("")
	r := &Runner{}
	for _, sc := range []Scale{Quick, Full} {
		for _, e := range All() {
			p := e.Plan(r, sc)
			seen := map[string]int{}
			for i, j := range p.Jobs {
				if j.Key == "" {
					t.Errorf("%s/%v job %d: empty key", e.Name, sc, i)
					continue
				}
				if prev, dup := seen[j.Key]; dup {
					t.Errorf("%s/%v job %d: key %q collides with job %d", e.Name, sc, i, j.Key, prev)
				}
				seen[j.Key] = i
			}
		}
	}
}

// Full mode must not shrink an experiment: every sweep keeps or grows
// its job count at paper scale.
func TestFullPlansCoverQuickPlans(t *testing.T) {
	resultcache.SetCodeVersion("plan-test")
	defer resultcache.SetCodeVersion("")
	r := &Runner{}
	for _, e := range All() {
		q, f := len(e.Plan(r, Quick).Jobs), len(e.Plan(r, Full).Jobs)
		if f < q {
			t.Errorf("%s: Full plans %d jobs, fewer than Quick's %d", e.Name, f, q)
		}
	}
}

// Rendering from a fully warmed cache must be byte-identical to the
// cold compute that filled it — the renderer cannot tell a hit from a
// simulation. Exercised on the cheap simulation-backed experiments.
func TestWarmCacheRendersIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	resultcache.SetCodeVersion("warm-test")
	defer resultcache.SetCodeVersion("")
	for _, name := range []string{"fig8", "replay", "loadcurve"} {
		e, ok := ByName(name)
		if !ok {
			t.Fatalf("unknown experiment %q", name)
		}
		dir := t.TempDir()
		store, err := resultcache.Open(dir, resultcache.ReadWrite)
		if err != nil {
			t.Fatal(err)
		}
		cold := &Runner{Cache: store}
		jobs := len(e.Plan(cold, Quick).Jobs)
		var coldOut bytes.Buffer
		cold.Run(e, &coldOut, Quick)
		if st := store.Stats(); st.Misses != uint64(jobs) || st.Stores != uint64(jobs) || st.Hits != 0 {
			t.Errorf("%s cold: stats %v, want %d misses and stores", name, st, jobs)
		}

		store2, err := resultcache.Open(dir, resultcache.ReadWrite)
		if err != nil {
			t.Fatal(err)
		}
		warm := &Runner{Cache: store2}
		var warmOut bytes.Buffer
		warm.Run(e, &warmOut, Quick)
		if st := store2.Stats(); st.Hits != uint64(jobs) || st.Misses != 0 {
			t.Errorf("%s warm: stats %v, want %d hits and no misses", name, st, jobs)
		}
		if !bytes.Equal(coldOut.Bytes(), warmOut.Bytes()) {
			t.Errorf("%s: warm render differs from cold render", name)
		}
	}
}

// BenchmarkPlanQuick plans every experiment at Quick scale — the work a
// warm pimmu-serve submission does before its dedup lookup. One warm-up
// pass fills the per-process fingerprint memo first, so the loop
// measures the steady state a long-lived server sees.
func BenchmarkPlanQuick(b *testing.B) {
	r := &Runner{}
	exps := All()
	for _, e := range exps {
		e.Plan(r, Quick)
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, e := range exps {
			e.Plan(r, Quick)
		}
	}
}
