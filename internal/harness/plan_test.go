package harness

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"repro/internal/prim"
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
// cached results — unless the two jobs run the same simulation: fig16
// keys a run by its sized inputs, so suite rows that differ only in name
// share a key. (Keys MAY coincide across plans and scales: fig13a and
// fig13b share their uncontended reference point, fig15a, fig15b and
// headline share their transfers, and a Full sweep legitimately reuses
// the Quick sweep's sizes — the key addresses the computation, not the
// experiment.)
func TestPlanKeysUniqueWithinPlan(t *testing.T) {
	resultcache.SetCodeVersion("plan-test")
	defer resultcache.SetCodeVersion("")
	r := &Runner{}
	suite, g := prim.Suite(), fig16Grid()
	sameRun := func(i, j int) bool {
		a, b := suite[g.Coord(i, 0)], suite[g.Coord(j, 0)]
		a.Name = b.Name
		return g.Coord(i, 1) == g.Coord(j, 1) && a == b
	}
	for _, sc := range []Scale{Quick, Full} {
		for _, e := range All() {
			p := e.Plan(r, sc)
			seen := map[string]int{}
			for i, j := range p.Jobs {
				if j.Key == "" {
					t.Errorf("%s/%v job %d: empty key", e.Name, sc, i)
					continue
				}
				if prev, dup := seen[j.Key]; dup && !(e.Name == "fig16" && sameRun(prev, i)) {
					t.Errorf("%s/%v job %d: key %q collides with job %d", e.Name, sc, i, j.Key, prev)
				}
				seen[j.Key] = i
			}
		}
	}
}

// planKeys is an experiment's plan keys at sc, in job order.
func planKeys(t *testing.T, name string, sc Scale) []string {
	t.Helper()
	e, ok := ByName(name)
	if !ok {
		t.Fatalf("unknown experiment %q", name)
	}
	var keys []string
	for _, j := range e.Plan(&Runner{}, sc).Jobs {
		keys = append(keys, j.Key)
	}
	return keys
}

// One job per distinct simulation: fig15a and fig15b plan the same
// transfers, headline's are among them, and fig16 shares a key only
// between the two pairs of suite rows with identical inputs.
func TestPlansShareKeysOfOneSimulation(t *testing.T) {
	resultcache.SetCodeVersion("plan-test")
	defer resultcache.SetCodeVersion("")
	for _, sc := range []Scale{Quick, Full} {
		a, b := planKeys(t, "fig15a", sc), planKeys(t, "fig15b", sc)
		if !slices.Equal(a, b) {
			t.Errorf("%v: fig15a and fig15b plan different keys", sc)
		}
		for i, k := range planKeys(t, "headline", sc) {
			if !slices.Contains(a, k) {
				t.Errorf("%v: headline job %d's key is not one of fig15a's", sc, i)
			}
		}

		suite, g := prim.Suite(), fig16Grid()
		var shared []string
		first := map[string]int{}
		for i, k := range planKeys(t, "fig16", sc) {
			prev, dup := first[k]
			if !dup {
				first[k] = i
				continue
			}
			if g.Coord(prev, 1) != g.Coord(i, 1) {
				t.Errorf("%v: fig16 jobs %d and %d of different designs share a key", sc, prev, i)
			}
			shared = append(shared, suite[g.Coord(prev, 0)].Name+"="+suite[g.Coord(i, 0)].Name)
		}
		want := []string{"SCAN-RSS=SCAN-SSA", "SCAN-RSS=SCAN-SSA", "UNI=VA", "UNI=VA"}
		if !slices.Equal(shared, want) {
			t.Errorf("%v: fig16 shares keys between %q, want %q", sc, shared, want)
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
