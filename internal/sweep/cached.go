package sweep

import (
	"bytes"
	"encoding/gob"
	"sync"
)

// Cache is the result store MapCachedN consults: a content-addressed
// byte-payload cache (satisfied by *resultcache.Store). Implementations
// must be safe for concurrent use by the worker pool and best-effort on
// Put — a failed store must not fail the sweep. A nil Cache stores
// nothing: MapCachedN then skips Get and Put and does everything else.
type Cache interface {
	// Get returns the payload stored under key, or false when no valid
	// entry exists (missing, corrupt, or stale entries all answer false).
	Get(key string) ([]byte, bool)
	// Put persists a payload under key.
	Put(key string, payload []byte)
}

// MapCachedN is MapN over content-addressed jobs: key(i) names the
// computation job(i) performs, so jobs with equal keys compute once and
// share the result, and with a non-nil c index i's result is served
// from c when a valid entry exists under key(i), and computed (then
// stored) otherwise, on a pool of workers goroutines (workers <= 0
// selects GOMAXPROCS). Because every job is a pure function of its
// configuration — the determinism contract the whole sweep layer rests
// on — a hit or a shared result is byte-identical to the computation it
// replaces, so the returned slice equals MapN's at every worker count.
//
// Results round-trip through gob, so R must be a gob-encodable type whose
// meaningful state lives in exported fields (strings, numerics, and
// exported-field structs all qualify). A payload that fails to decode —
// for example after R's shape changed — counts as a miss and is
// recomputed and overwritten.
//
// Missed keys compute at most once at a time per process: duplicate keys
// within one call share a single computation, and concurrent calls that
// miss the same key single-flight on it — later arrivals block on the
// first computation's published result instead of running the job again
// (see computeShared).
func MapCachedN[R any](c Cache, n, workers int, key func(i int) string, job func(i int) R) []R {
	out := make([]R, n)
	keys := make([]string, n)
	var miss []int
	for i := 0; i < n; i++ {
		keys[i] = key(i)
		if c != nil {
			if payload, ok := c.Get(keys[i]); ok && decodeResult(payload, &out[i]) {
				continue
			}
			// A failed decode leaves out[i] partly filled; reset it.
			var zero R
			out[i] = zero
		}
		miss = append(miss, i)
	}
	if len(miss) == 0 {
		return out
	}
	// Duplicate keys inside one sweep compute once: the first index
	// holding a key leads, later ones share its result. The leaders then
	// run under the process-wide single-flight table, which extends the
	// same one-compute guarantee across concurrent sweeps.
	leaderAt := make(map[string]int, len(miss)) // key -> its leader's place in uniq
	var uniq []int
	for _, i := range miss {
		if _, ok := leaderAt[keys[i]]; !ok {
			leaderAt[keys[i]] = len(uniq)
			uniq = append(uniq, i)
		}
	}
	// Only the misses occupy workers; each stores its result as soon as
	// it is computed, so an interrupted sweep still persists every
	// finished design point.
	results := MapN(len(uniq), workers, func(j int) R {
		i := uniq[j]
		return computeShared(c, keys[i], func() R { return job(i) })
	})
	for _, i := range miss {
		out[i] = results[leaderAt[keys[i]]]
	}
	return out
}

// flight is one in-progress computation of a cache key: done closes when
// the leader finishes, and payload carries its gob-encoded result when
// ok (encoding can fail, and a panicking leader publishes nothing).
type flight struct {
	done    chan struct{}
	payload []byte
	ok      bool
}

// testFlightJoined, when non-nil (installed by tests only), observes a
// caller joining an already-registered flight. It makes the join step
// externally visible, which is what lets tests hold a leader open until
// a waiter has provably attached.
var testFlightJoined func(key string)

// inflight is the process-wide single-flight table, keyed by cache key.
// Cache keys are content-addressed — an identical key names an identical
// result by construction — so it is sound to share results across every
// Cache instance in the process, not just within one sweep.
var inflight = struct {
	sync.Mutex
	m map[string]*flight
}{m: make(map[string]*flight)}

// computeShared runs job under the key's single-flight slot: when
// another goroutine anywhere in the process is already computing the
// same key, the caller blocks on that computation and decodes its
// published payload instead of simulating a second time. The leader
// alone stores the result in c (when c is non-nil); waiters already see
// it through the flight, and their own Get on the next sweep will hit
// the entry the leader persisted. A leader whose result cannot be shared (gob encode
// failure, or a panic re-raised through the sweep pool) wakes its
// waiters empty-handed and each computes locally.
func computeShared[R any](c Cache, key string, job func() R) R {
	inflight.Lock()
	if f := inflight.m[key]; f != nil {
		inflight.Unlock()
		if testFlightJoined != nil {
			testFlightJoined(key)
		}
		<-f.done
		if f.ok {
			var r R
			if decodeResult(f.payload, &r) {
				return r
			}
		}
		return job()
	}
	f := &flight{done: make(chan struct{})}
	inflight.m[key] = f
	inflight.Unlock()
	defer func() {
		inflight.Lock()
		delete(inflight.m, key)
		inflight.Unlock()
		close(f.done)
	}()
	r := job()
	if payload, ok := encodeResult(r); ok {
		if c != nil {
			c.Put(key, payload)
		}
		f.payload, f.ok = payload, true
	}
	return r
}

// encodeResult renders one result as a gob payload.
func encodeResult[R any](r R) ([]byte, bool) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&r); err != nil {
		return nil, false
	}
	return buf.Bytes(), true
}

// decodeResult parses a gob payload into out, reporting success.
func decodeResult[R any](payload []byte, out *R) bool {
	return gob.NewDecoder(bytes.NewReader(payload)).Decode(out) == nil
}
