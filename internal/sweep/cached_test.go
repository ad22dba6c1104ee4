package sweep

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// mapCache is an in-memory Cache for tests.
type mapCache struct {
	mu      sync.Mutex
	entries map[string][]byte
	gets    int
	puts    int
}

func newMapCache() *mapCache { return &mapCache{entries: map[string][]byte{}} }

func (c *mapCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gets++
	p, ok := c.entries[key]
	return p, ok
}

func (c *mapCache) Put(key string, payload []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.puts++
	c.entries[key] = append([]byte(nil), payload...)
}

// result exercises the exported-field struct path (the shape harness
// experiments cache).
type result struct {
	Index int
	Thr   float64
	Label string
}

func TestMapCachedColdThenWarm(t *testing.T) {
	c := newMapCache()
	key := func(i int) string { return fmt.Sprintf("job-%d", i) }
	var calls []int
	var mu sync.Mutex
	job := func(i int) result {
		mu.Lock()
		calls = append(calls, i)
		mu.Unlock()
		return result{Index: i, Thr: float64(i) * 1.5, Label: fmt.Sprintf("r%d", i)}
	}
	const n = 9
	cold := MapCachedN(c, n, 0, key, job)
	if len(calls) != n {
		t.Fatalf("cold run computed %d jobs, want %d", len(calls), n)
	}
	if c.puts != n {
		t.Fatalf("cold run stored %d entries, want %d", c.puts, n)
	}
	calls = nil
	warm := MapCachedN(c, n, 0, key, func(i int) result {
		t.Errorf("warm run recomputed job %d", i)
		return result{}
	})
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("warm run differs:\ncold %+v\nwarm %+v", cold, warm)
	}
	for i, r := range warm {
		if r.Index != i {
			t.Fatalf("result %d out of order: %+v", i, r)
		}
	}
}

func TestMapCachedPartialHits(t *testing.T) {
	c := newMapCache()
	key := func(i int) string { return fmt.Sprintf("k%d", i) }
	full := MapCachedN(c, 6, 0, key, func(i int) int { return i * i })
	// Drop half the entries; only those recompute.
	c.mu.Lock()
	delete(c.entries, "k1")
	delete(c.entries, "k4")
	c.mu.Unlock()
	var recomputed []int
	var mu sync.Mutex
	again := MapCachedN(c, 6, 0, key, func(i int) int {
		mu.Lock()
		recomputed = append(recomputed, i)
		mu.Unlock()
		return i * i
	})
	if !reflect.DeepEqual(full, again) {
		t.Fatalf("partial-hit run differs: %v vs %v", full, again)
	}
	if len(recomputed) != 2 {
		t.Fatalf("recomputed %v, want exactly the two evicted jobs", recomputed)
	}
}

func TestMapCachedRejectsUndecodablePayload(t *testing.T) {
	c := newMapCache()
	key := func(i int) string { return "k" }
	c.Put("k", []byte("not a gob payload"))
	got := MapCachedN(c, 1, 0, key, func(i int) result { return result{Index: 42} })
	if got[0].Index != 42 {
		t.Fatalf("corrupt payload served: %+v", got[0])
	}
	// The recompute overwrote the bad entry with a decodable one.
	warm := MapCachedN(c, 1, 0, key, func(i int) result {
		t.Error("repaired entry missed")
		return result{}
	})
	if warm[0].Index != 42 {
		t.Fatalf("repaired entry = %+v", warm[0])
	}
}

func TestMapCachedNilCacheDedupesKeys(t *testing.T) {
	// Without a cache, jobs with equal keys still compute once, and the
	// result equals MapN's over the same jobs, in index order, at every
	// worker count.
	keys := []string{"a", "b", "a", "c", "b", "a", "d", "c", "e"}
	job := func(i int) result {
		k := keys[i]
		return result{Index: int(k[0]), Thr: float64(k[0]) / 3, Label: k}
	}
	want := MapN(len(keys), 1, job)
	for _, workers := range []int{1, 2, 8} {
		var mu sync.Mutex
		runs := map[string]int{}
		got := MapCachedN[result](nil, len(keys), workers,
			func(i int) string { return keys[i] },
			func(i int) result {
				mu.Lock()
				runs[keys[i]]++
				mu.Unlock()
				return job(i)
			})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: nil-cache result %+v, want MapN's %+v", workers, got, want)
		}
		if len(runs) != 5 {
			t.Fatalf("workers=%d: ran keys %v, want all 5 distinct keys", workers, runs)
		}
		for k, n := range runs {
			if n != 1 {
				t.Errorf("workers=%d: key %q computed %d times, want once", workers, k, n)
			}
		}
	}
}

func TestMapCachedOrderingAcrossWorkers(t *testing.T) {
	// Mixed hits and misses must land in index order at every worker
	// count, exactly like Map.
	for _, workers := range []int{1, 2, 8} {
		c := newMapCache()
		key := func(i int) string { return fmt.Sprintf("w%d", i) }
		MapCachedN(c, 16, workers, key, func(i int) int { return i })
		c.mu.Lock()
		for i := 0; i < 16; i += 3 {
			delete(c.entries, key(i))
		}
		c.mu.Unlock()
		got := MapCachedN(c, 16, workers, key, func(i int) int { return i })
		for i, v := range got {
			if v != i {
				t.Fatalf("workers=%d: index %d holds %d", workers, i, v)
			}
		}
	}
}

func TestMapCachedDuplicateKeysComputeOnce(t *testing.T) {
	// Duplicate keys within one call are the in-call face of the
	// single-flight bug: without dedup, a serial sweep computes the
	// shared key once per index.
	for _, workers := range []int{1, 4} {
		c := newMapCache()
		var computes atomic.Int32
		got := MapCachedN(c, 4, workers,
			func(i int) string { return "shared" },
			func(i int) result {
				computes.Add(1)
				return result{Index: 7, Label: "same"}
			})
		if n := computes.Load(); n != 1 {
			t.Fatalf("workers=%d: %d computes for one shared key, want 1", workers, n)
		}
		for i, r := range got {
			if r.Index != 7 || r.Label != "same" {
				t.Fatalf("workers=%d: result %d = %+v, want the shared result", workers, i, r)
			}
		}
		if c.puts != 1 {
			t.Fatalf("workers=%d: %d puts, want 1", workers, c.puts)
		}
	}
}

func TestMapCachedConcurrentCallsSingleFlight(t *testing.T) {
	// Two concurrent MapCachedN calls missing the same key must cost one
	// compute: the second call blocks on the first's in-flight result.
	// The handshake is deterministic — the leader registers its flight
	// before running the job (so once the job has signalled `started`,
	// any later call finds the flight), and the test only releases the
	// leader after the join hook confirms the second call attached.
	c := newMapCache()
	joined := make(chan string, 1)
	testFlightJoined = func(key string) { joined <- key }
	defer func() { testFlightJoined = nil }()
	var computes atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	key := func(i int) string { return "contended" }
	first := make(chan []result)
	go func() {
		first <- MapCachedN(c, 1, 0, key, func(i int) result {
			computes.Add(1)
			close(started)
			<-release
			return result{Index: 1, Thr: 2.5}
		})
	}()
	<-started
	second := make(chan []result)
	go func() {
		second <- MapCachedN(c, 1, 0, key, func(i int) result {
			computes.Add(1) // must never run
			return result{}
		})
	}()
	if k := <-joined; k != "contended" {
		t.Fatalf("second call joined flight %q, want %q", k, "contended")
	}
	close(release)
	a, b := <-first, <-second
	if n := computes.Load(); n != 1 {
		t.Fatalf("%d computes across concurrent identical sweeps, want 1", n)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("waiter result %+v differs from leader result %+v", b, a)
	}
	if c.puts != 1 {
		t.Fatalf("%d puts, want only the leader's", c.puts)
	}
}

func TestComputeSharedWaiterDecodesLeaderResult(t *testing.T) {
	// Direct single-flight unit: a second computeShared on a registered
	// key joins the flight and never runs its own job. The leader is held
	// open until the join hook confirms the waiter attached.
	c := newMapCache()
	joined := make(chan string, 1)
	testFlightJoined = func(key string) { joined <- key }
	defer func() { testFlightJoined = nil }()
	ready := make(chan struct{})
	release := make(chan struct{})
	leader := make(chan result)
	go func() {
		leader <- computeShared(c, "k", func() result {
			close(ready)
			<-release
			return result{Index: 9, Label: "lead"}
		})
	}()
	<-ready
	waiter := make(chan result)
	go func() {
		waiter <- computeShared(c, "k", func() result {
			t.Error("waiter computed despite an in-flight leader")
			return result{}
		})
	}()
	if k := <-joined; k != "k" {
		t.Fatalf("waiter joined flight %q, want %q", k, "k")
	}
	close(release)
	lr, wr := <-leader, <-waiter
	if !reflect.DeepEqual(lr, wr) {
		t.Fatalf("waiter got %+v, leader computed %+v", wr, lr)
	}
}

func TestComputeSharedPanickingLeaderReleasesWaiters(t *testing.T) {
	// A leader that panics must not strand waiters: the flight resolves
	// empty and the waiter computes locally.
	c := newMapCache()
	joined := make(chan string, 1)
	testFlightJoined = func(key string) { joined <- key }
	defer func() { testFlightJoined = nil }()
	ready := make(chan struct{})
	release := make(chan struct{})
	go func() {
		defer func() { recover() }()
		computeShared(c, "boom", func() result {
			close(ready)
			<-release
			panic("leader died")
		})
	}()
	<-ready
	waiter := make(chan result)
	go func() {
		waiter <- computeShared(c, "boom", func() result {
			return result{Index: 3}
		})
	}()
	if k := <-joined; k != "boom" {
		t.Fatalf("waiter joined flight %q, want %q", k, "boom")
	}
	close(release)
	if r := <-waiter; r.Index != 3 {
		t.Fatalf("waiter result %+v, want its own local compute", r)
	}
}

func TestMapCachedFloatBitExact(t *testing.T) {
	// Floats must round-trip bit-exactly: rendered tables compare byte
	// for byte between cold and warm runs.
	c := newMapCache()
	vals := []float64{0.1, 1.0 / 3.0, 2.2250738585072014e-308, 6.9}
	key := func(i int) string { return fmt.Sprintf("f%d", i) }
	cold := MapCachedN(c, len(vals), 0, key, func(i int) float64 { return vals[i] })
	warm := MapCachedN(c, len(vals), 0, key, func(i int) float64 {
		t.Errorf("job %d recomputed", i)
		return 0
	})
	for i := range vals {
		if cold[i] != vals[i] || warm[i] != vals[i] {
			t.Fatalf("float %d drifted: %x vs %x", i, warm[i], vals[i])
		}
	}
}
