package harness

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/prim"
	"repro/internal/resultcache"
	"repro/internal/system"
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
// and fig13b share their uncontended reference point, fig15a, fig15b,
// headline and fig16 share their transfers, and a Full sweep
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
// transfers, headline's are among them, and fig16 plans each distinct
// transfer its suite needs once per design, under the key fig15a and
// headline use where the sizes coincide.
func TestPlansShareKeysOfOneSimulation(t *testing.T) {
	resultcache.SetCodeVersion("plan-test")
	defer resultcache.SetCodeVersion("")
	for _, sc := range []Scale{Quick, Full} {
		a, b := planKeys(t, "fig15a", sc), planKeys(t, "fig15b", sc)
		if !slices.Equal(a, b) {
			t.Errorf("%v: fig15a and fig15b plan different keys", sc)
		}
		headline := planKeys(t, "headline", sc)
		for i, k := range headline {
			if !slices.Contains(a, k) {
				t.Errorf("%v: headline job %d's key is not one of fig15a's", sc, i)
			}
		}

		// The distinct (direction, whole-device bytes) transfers the
		// suite needs, and those that are also fig15 sizes.
		cores := uint64(system.DefaultConfig(system.Base).PIM.NumCores())
		distinct, coincide := map[transfer]bool{}, map[transfer]bool{}
		for _, wl := range prim.Suite() {
			p, err := wl.Scale(fig16Scale(sc), int(cores))
			if err != nil {
				t.Fatal(err)
			}
			for _, x := range []transfer{{core.DRAMToPIM, p.InBytes * cores}, {core.PIMToDRAM, p.OutBytes * cores}} {
				distinct[x] = true
				coincide[x] = slices.Contains(fig15Sizes(sc), x.bytes)
			}
		}
		fig16 := planKeys(t, "fig16", sc)
		if want := 2 * len(distinct); len(fig16) != want {
			t.Errorf("%v: fig16 plans %d jobs, want %d (%d distinct transfers x 2 designs)",
				sc, len(fig16), want, len(distinct))
		}
		var shared int
		for _, k := range fig16 {
			if slices.Contains(a, k) {
				shared++
				if !slices.Contains(headline, k) {
					t.Errorf("%v: fig16 key %q is fig15a's but not headline's", sc, k)
				}
			}
		}
		var want int
		for _, c := range coincide {
			if c {
				want += 2
			}
		}
		if shared != want {
			t.Errorf("%v: fig16 shares %d keys with fig15a and headline, want %d", sc, shared, want)
		}
		t.Logf("%v: fig16 plans %d jobs, %d shared with fig15a and headline", sc, len(fig16), shared)
	}
	// At quick scale the suite's transfers are 11 distinct (direction,
	// size) pairs, and three of them are fig15 points.
	e, _ := ByName("fig16")
	jobs := e.Plan(&Runner{}, Quick).Jobs
	if len(jobs) != 22 {
		t.Errorf("quick fig16 plans %d jobs, want 22 (11 distinct transfers x 2 designs)", len(jobs))
	}
	fig15a := planKeys(t, "fig15a", Quick)
	var ops []string
	for _, j := range jobs {
		if slices.Contains(fig15a, j.Key) && !slices.Contains(ops, j.Op) {
			ops = append(ops, j.Op)
		}
	}
	want := []string{
		fmt.Sprintf("xfer dir=%v bytes=%d", core.DRAMToPIM, 1<<20),
		fmt.Sprintf("xfer dir=%v bytes=%d", core.PIMToDRAM, 1<<20),
		fmt.Sprintf("xfer dir=%v bytes=%d", core.PIMToDRAM, 4<<20),
	}
	if !slices.Equal(ops, want) {
		t.Errorf("quick fig16 shares fig15a's keys for %q, want %q", ops, want)
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
