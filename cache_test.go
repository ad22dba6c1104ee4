// Result-cache correctness tests: a cache-hit rerun of an experiment
// must be byte-identical to a cold run — across worker counts and shard
// counts within an engine class — and the cache must reject (and silently
// recompute past) corrupt, truncated and wrong-code-version entries.
// These are the properties that make caching sound on top of the
// determinism contract the rest of this suite pins.
package pimmmu_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/harness"
	"repro/internal/resultcache"
	"repro/internal/system"
)

// cachedExperiments are the tier-1 representatives: fig8 caches plain
// floats; replay caches a struct carrying a latency histogram, covering
// the structured-payload round trip. The slow tier's experiment-wide
// audits extend byte-identity to every experiment uncached.
var cachedExperiments = []string{"fig8", "replay"}

// renderWith renders one experiment through a fresh Runner with the
// given sweep and engine settings, fronted by store when non-nil.
func renderWith(t *testing.T, store *resultcache.Store, name string, workers, shards int) []byte {
	t.Helper()
	e, ok := harness.ByName(name)
	if !ok {
		t.Fatalf("unknown experiment %q", name)
	}
	r := &harness.Runner{Shards: shards, Workers: workers}
	if store != nil {
		r.Cache = store
	}
	var b bytes.Buffer
	r.Run(e, &b, harness.Quick)
	return b.Bytes()
}

// openCache builds a fresh store over dir.
func openCache(t *testing.T, dir string, mode resultcache.Mode) *resultcache.Store {
	t.Helper()
	store, err := resultcache.Open(dir, mode)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// pinVersion makes the code-version stamp deterministic for one test.
func pinVersion(t *testing.T, v string) {
	t.Helper()
	resultcache.SetCodeVersion(v)
	t.Cleanup(func() { resultcache.SetCodeVersion("") })
}

// TestCacheHitRerunByteIdentical is the acceptance property: with a warm
// cache, a rerun serves every job from disk (hits == job count) and the
// rendered tables are byte-identical to the cold run, at every worker
// count.
func TestCacheHitRerunByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed experiment")
	}
	for _, name := range cachedExperiments {
		t.Run(name, func(t *testing.T) {
			pinVersion(t, "cache-test-v1")
			store := openCache(t, t.TempDir(), resultcache.ReadWrite)
			cold := renderWith(t, store, name, 1, 0)
			st := store.Stats()
			if st.Hits != 0 || st.Misses == 0 || st.Stores != st.Misses {
				t.Fatalf("cold-run stats: %+v", st)
			}
			jobs := st.Misses
			for _, workers := range []int{1, 4, 8} {
				before := store.Stats()
				warm := renderWith(t, store, name, workers, 0)
				if !bytes.Equal(cold, warm) {
					t.Fatalf("workers=%d: warm run differs from cold\n--- cold ---\n%s--- warm ---\n%s",
						workers, cold, warm)
				}
				d := store.Stats().Sub(before)
				if d.Hits != jobs || d.Misses != 0 {
					t.Fatalf("workers=%d: warm-run delta %+v, want %d hits", workers, d, jobs)
				}
			}
		})
	}
}

// TestCacheCrossTopologyReuse pins the result-neutral fingerprint: the
// shard count is masked out of the cache key, so entries warmed at
// shards=1 serve every other sharded count, auto included, with zero
// re-simulation and byte-identical output. The plain engine (shards=0)
// keeps its own keys: fig8 is a CPU-streaming workload where it orders
// same-instant ties differently — see system.Config.Shards — so plain
// and sharded must never alias.
func TestCacheCrossTopologyReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed experiment")
	}
	pinVersion(t, "cache-test-v1")
	store := openCache(t, t.TempDir(), resultcache.ReadWrite)
	serial := renderWith(t, store, "fig8", 4, 1)
	jobs := store.Stats().Misses
	for _, shards := range []int{2, 4, system.Auto} {
		before := store.Stats()
		got := renderWith(t, store, "fig8", 4, shards)
		if !bytes.Equal(serial, got) {
			t.Fatalf("shards=%d: warm output diverged from shards=1", shards)
		}
		d := store.Stats().Sub(before)
		if d.Hits != jobs || d.Misses != 0 {
			t.Fatalf("shards=%d: delta %+v, want %d hits and no re-simulation", shards, d, jobs)
		}
	}
	// The plain engine is a different engine class: fresh misses, and
	// the sharded entries stay intact underneath.
	before := store.Stats()
	renderWith(t, store, "fig8", 4, 0)
	if d := store.Stats().Sub(before); d.Hits != 0 || d.Misses != jobs {
		t.Fatalf("plain-engine delta %+v, want %d fresh misses", d, jobs)
	}
	before = store.Stats()
	if warm := renderWith(t, store, "fig8", 4, 1); !bytes.Equal(serial, warm) {
		t.Fatal("serial-sharded rerun no longer matches")
	}
	if d := store.Stats().Sub(before); d.Hits != jobs {
		t.Fatalf("serial-sharded entries lost: %+v", d)
	}
}

// TestCacheWarmShards1ServesShards4 is the headline acceptance path for
// result-neutral keys, on the two experiments the nightly render job
// publishes: a cache warmed at -shards 1 replays headline and loadcurve
// at -shards 4 with hit count == job count and the artifact
// byte-identical — changing the shard count within the sharded engine
// class costs zero re-simulation.
func TestCacheWarmShards1ServesShards4(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed experiment")
	}
	for _, name := range []string{"headline", "loadcurve"} {
		t.Run(name, func(t *testing.T) {
			pinVersion(t, "cache-test-v1")
			store := openCache(t, t.TempDir(), resultcache.ReadWrite)
			cold := renderWith(t, store, name, 0, 1)
			jobs := store.Stats().Misses
			if jobs == 0 {
				t.Fatalf("%s planned no cacheable jobs", name)
			}
			before := store.Stats()
			warm := renderWith(t, store, name, 0, 4)
			if !bytes.Equal(cold, warm) {
				t.Fatalf("warm shards=4 render differs from cold shards=1\n--- cold ---\n%s--- warm ---\n%s",
					cold, warm)
			}
			d := store.Stats().Sub(before)
			if d.Hits != jobs || d.Misses != 0 {
				t.Fatalf("shards=4 delta %+v, want %d hits and zero misses", d, jobs)
			}
			// And the reuse is stable: rerunning at shards=4 stays
			// all-hits (nothing was re-stored under a different key).
			before = store.Stats()
			renderWith(t, store, name, 0, 4)
			if d := store.Stats().Sub(before); d.Misses != 0 {
				t.Fatalf("identical rerun missed: %+v", d)
			}
		})
	}
}

// TestCacheNonNeutralPerturbationMisses proves the mask is surgical:
// changing a result-affecting config field (a DRAM timing parameter)
// under the same engine class forces fresh misses, never a stale hit.
func TestCacheNonNeutralPerturbationMisses(t *testing.T) {
	pinVersion(t, "cache-test-v1")
	cfg := system.DefaultConfig(system.PIMMMU)
	cfg.Shards = 1
	r := &harness.Runner{}
	base := r.NewJob("test/v1", cfg, "op")
	// Neutral change: same key.
	moved := cfg
	moved.Shards, moved.CoreLanes = 4, 4
	if r.NewJob("test/v1", moved, "op").Key != base.Key {
		t.Fatal("shard-count change altered the cache key")
	}
	// Non-neutral change: different key.
	timing := cfg
	timing.Mem.DRAM.Timing.CL++
	if r.NewJob("test/v1", timing, "op").Key == base.Key {
		t.Fatal("DRAM timing change did not alter the cache key")
	}
	// Engine class change: different key.
	plain := cfg
	plain.Shards = 0
	if r.NewJob("test/v1", plain, "op").Key == base.Key {
		t.Fatal("plain-engine config shares the sharded cache key")
	}
}

// TestCacheCorruptEntriesRecomputed damages every stored entry —
// truncation, bit flips, emptying — and requires the rerun to reject
// them all, recompute, repair the files, and still render the cold
// artifact byte for byte.
func TestCacheCorruptEntriesRecomputed(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed experiment")
	}
	pinVersion(t, "cache-test-v1")
	dir := t.TempDir()
	store := openCache(t, dir, resultcache.ReadWrite)
	cold := renderWith(t, store, "fig8", 2, 0)
	entries, err := filepath.Glob(filepath.Join(dir, "*.prc"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no cache entries written: %v (%v)", entries, err)
	}
	for i, path := range entries {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		switch i % 3 {
		case 0: // truncate mid-payload
			data = data[:len(data)/2]
		case 1: // flip a payload bit
			data[len(data)-8] ^= 1
		case 2: // empty file
			data = nil
		}
		if err := os.WriteFile(path, data, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	before := store.Stats()
	warm := renderWith(t, store, "fig8", 2, 0)
	if !bytes.Equal(cold, warm) {
		t.Fatalf("recomputed run differs from cold\n--- cold ---\n%s--- recomputed ---\n%s", cold, warm)
	}
	d := store.Stats().Sub(before)
	if d.Hits != 0 || d.Rejected != uint64(len(entries)) || d.Stores != uint64(len(entries)) {
		t.Fatalf("corruption delta %+v, want %d rejections and repairs", d, len(entries))
	}
	// The repaired entries hit again.
	before = store.Stats()
	renderWith(t, store, "fig8", 2, 0)
	if d := store.Stats().Sub(before); d.Hits != uint64(len(entries)) || d.Misses != 0 {
		t.Fatalf("repair did not stick: %+v", d)
	}
}

// TestCacheCodeVersionChangeForcesMiss proves the second half of the
// acceptance criterion: a code-version change alone — same config, same
// op — invalidates every entry.
func TestCacheCodeVersionChangeForcesMiss(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed experiment")
	}
	pinVersion(t, "build-A")
	store := openCache(t, t.TempDir(), resultcache.ReadWrite)
	cold := renderWith(t, store, "fig8", 2, 0)
	jobs := store.Stats().Misses
	resultcache.SetCodeVersion("build-B")
	before := store.Stats()
	if got := renderWith(t, store, "fig8", 2, 0); !bytes.Equal(cold, got) {
		t.Fatal("same-code rerun under a new stamp changed output")
	}
	if d := store.Stats().Sub(before); d.Hits != 0 || d.Misses != jobs {
		t.Fatalf("new code version delta %+v, want %d misses", d, jobs)
	}
	// Flipping back, the original entries still hit: distinct versions
	// coexist in one directory without clobbering each other's keys.
	resultcache.SetCodeVersion("build-A")
	before = store.Stats()
	renderWith(t, store, "fig8", 2, 0)
	if d := store.Stats().Sub(before); d.Hits != jobs {
		t.Fatalf("original version's entries lost: %+v", d)
	}
}

// TestCacheReadOnlySharing exercises -cache ro: hits serve, misses
// recompute, and nothing is ever written.
func TestCacheReadOnlySharing(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed experiment")
	}
	pinVersion(t, "cache-test-v1")
	dir := t.TempDir()
	// Warm half the cache in rw mode, then reopen read-only.
	rw := openCache(t, dir, resultcache.ReadWrite)
	cold := renderWith(t, rw, "fig8", 2, 0)
	ro := openCache(t, dir, resultcache.ReadOnly)
	if got := renderWith(t, ro, "fig8", 2, 0); !bytes.Equal(cold, got) {
		t.Fatal("read-only warm run differs")
	}
	st := ro.Stats()
	if st.Hits == 0 || st.Stores != 0 || st.BytesWritten != 0 {
		t.Fatalf("read-only stats %+v", st)
	}
	// A different experiment misses and recomputes without writing.
	before := ro.Stats()
	renderWith(t, ro, "replay", 2, 0)
	d := ro.Stats().Sub(before)
	if d.Misses == 0 || d.Stores != 0 {
		t.Fatalf("read-only miss path delta %+v", d)
	}
}
