// Result-cache correctness tests: a cache-hit rerun of an experiment
// must be byte-identical to a cold run at every worker count, and the
// cache must reject (and silently
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
// given worker count, fronted by store when non-nil.
func renderWith(t *testing.T, store *resultcache.Store, name string, workers int) []byte {
	t.Helper()
	e, ok := harness.ByName(name)
	if !ok {
		t.Fatalf("unknown experiment %q", name)
	}
	r := &harness.Runner{Workers: workers}
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
			cold := renderWith(t, store, name, 1)
			st := store.Stats()
			if st.Hits != 0 || st.Misses == 0 || st.Stores != st.Misses {
				t.Fatalf("cold-run stats: %+v", st)
			}
			jobs := st.Misses
			for _, workers := range []int{1, 4, 8} {
				before := store.Stats()
				warm := renderWith(t, store, name, workers)
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

// TestCacheNonNeutralPerturbationMisses proves the key is exhaustive:
// changing any result-affecting config field — a DRAM timing parameter,
// the engine class, the shard count within the sharded class, or the
// ignored CoreLanes — forces fresh misses, never a stale hit. No Config
// field is masked out of the fingerprint.
func TestCacheNonNeutralPerturbationMisses(t *testing.T) {
	pinVersion(t, "cache-test-v1")
	cfg := system.DefaultConfig(system.PIMMMU)
	r := &harness.Runner{}
	base := r.NewJob("test/v1", cfg, "op")
	for name, perturb := range map[string]func(*system.Config){
		"DRAM timing":    func(c *system.Config) { c.Mem.DRAM.Timing.CL++ },
		"sharded engine": func(c *system.Config) { c.Shards = 1 },
		"core lanes":     func(c *system.Config) { c.CoreLanes = 4 },
	} {
		moved := cfg
		perturb(&moved)
		if r.NewJob("test/v1", moved, "op").Key == base.Key {
			t.Errorf("%s change did not alter the cache key", name)
		}
	}
	sharded := cfg
	sharded.Shards = 1
	moved := sharded
	moved.Shards = 4
	if r.NewJob("test/v1", moved, "op").Key == r.NewJob("test/v1", sharded, "op").Key {
		t.Error("shard-count change did not alter the cache key")
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
	cold := renderWith(t, store, "fig8", 2)
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
	warm := renderWith(t, store, "fig8", 2)
	if !bytes.Equal(cold, warm) {
		t.Fatalf("recomputed run differs from cold\n--- cold ---\n%s--- recomputed ---\n%s", cold, warm)
	}
	d := store.Stats().Sub(before)
	if d.Hits != 0 || d.Rejected != uint64(len(entries)) || d.Stores != uint64(len(entries)) {
		t.Fatalf("corruption delta %+v, want %d rejections and repairs", d, len(entries))
	}
	// The repaired entries hit again.
	before = store.Stats()
	renderWith(t, store, "fig8", 2)
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
	cold := renderWith(t, store, "fig8", 2)
	jobs := store.Stats().Misses
	resultcache.SetCodeVersion("build-B")
	before := store.Stats()
	if got := renderWith(t, store, "fig8", 2); !bytes.Equal(cold, got) {
		t.Fatal("same-code rerun under a new stamp changed output")
	}
	if d := store.Stats().Sub(before); d.Hits != 0 || d.Misses != jobs {
		t.Fatalf("new code version delta %+v, want %d misses", d, jobs)
	}
	// Flipping back, the original entries still hit: distinct versions
	// coexist in one directory without clobbering each other's keys.
	resultcache.SetCodeVersion("build-A")
	before = store.Stats()
	renderWith(t, store, "fig8", 2)
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
	cold := renderWith(t, rw, "fig8", 2)
	ro := openCache(t, dir, resultcache.ReadOnly)
	if got := renderWith(t, ro, "fig8", 2); !bytes.Equal(cold, got) {
		t.Fatal("read-only warm run differs")
	}
	st := ro.Stats()
	if st.Hits == 0 || st.Stores != 0 || st.BytesWritten != 0 {
		t.Fatalf("read-only stats %+v", st)
	}
	// A different experiment misses and recomputes without writing.
	before := ro.Stats()
	renderWith(t, ro, "replay", 2)
	d := ro.Stats().Sub(before)
	if d.Misses == 0 || d.Stores != 0 {
		t.Fatalf("read-only miss path delta %+v", d)
	}
}
