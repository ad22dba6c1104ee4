package system

import (
	"sync"

	"repro/internal/resultcache"
)

// configSchema versions the fingerprint derivation itself; bump it when
// the meaning of an existing field changes without its name or type
// changing (the canonical encoding cannot see that), or when the
// neutral-field mask changes (the encoding of the remaining fields
// stays the same, so only the schema tag separates old keys from new).
//
// v2: Shards and CoreLanes left the encoding (neutralFields below);
// caches warmed under v1 never hit again — prune them with
// `pimmu cache-gc` after a code-version bump, or leave them to
// age out.
const configSchema = "system.Config/v2"

// neutralFields are the Config fields excluded from the fingerprint
// because they are result-neutral: CoreLanes is ignored, and every
// non-zero Shards value selects the same sharded engine. Worker counts
// never appear here because they are not Config fields at all —
// parallelism level (harness.Runner.Workers, sweep.SetWorkers) lives
// outside the simulated machine's configuration.
//
// Shards is masked but not ignored: the plain engine (Shards == 0) and
// the sharded engine are separate event orders whose results can differ,
// so Fingerprint folds the engine class — plain vs sharded — back into
// the key below. SeriesWindow
// (Mem.*.SeriesWindow) is deliberately NOT masked: it changes what the
// simulation records (per-channel bandwidth series on or off), so two
// configs differing there do not compute the same result payload.
var neutralFields = resultcache.Mask{
	"Shards":    true,
	"CoreLanes": true,
}

// engineClass projects Shards onto the only distinction that can reach
// results: whether the machine runs the plain engine or the sharded one
// (Auto included).
func (c Config) engineClass() string {
	if c.Shards == 0 {
		return "plain"
	}
	return "sharded"
}

// Fingerprint returns a stable content digest of the configuration:
// every exported field — recursively, covering the memory system, CPU,
// PIM geometry, DCE, energy model, transfer engines and design point —
// is canonically encoded and hashed, except the result-neutral fields
// (neutralFields), with the engine class keyed on its own. Two configs
// share a fingerprint iff every result-affecting field agrees (proven
// per-field by the reflection-based sensitivity test), so the
// fingerprint is a sound cache-key component for any result that is a
// pure function of the machine: by the determinism contract, that is
// every simulation result.
//
// Shards and CoreLanes are masked out so that a cache warmed at -shards
// 1 serves renders at -shards 4 or auto without re-simulating; the
// engine class survives as its own key part.
//
// The digest is computed once per distinct configuration per process
// (see fingerprints); later calls return the memoised string.
func (c Config) Fingerprint() string {
	k := c.memoKey()
	fingerprints.RLock()
	fp, ok := fingerprints.m[k]
	fingerprints.RUnlock()
	if ok {
		return fp
	}
	fp = c.fingerprint()
	fingerprints.Lock()
	fingerprints.m[k] = fp
	fingerprints.Unlock()
	return fp
}

// fingerprint is the uncached derivation behind Fingerprint: the
// reflective canonical walk plus the hash.
func (c Config) fingerprint() string {
	return resultcache.KeyOf(configSchema, c.engineClass(),
		string(resultcache.CanonicalMasked(c, neutralFields)))
}

// fingerprints memoises Fingerprint for the life of the process, keyed
// by the configuration value itself. Plans fingerprint the same few
// machines over and over (every warm pimmu-serve submission re-plans its
// experiment), and the canonical walk dominates planning.
//
// Keying by value is sound because every Config leaf is an integer or a
// bool (TestConfigLeavesAreComparable): Go == on Config then agrees
// exactly with equality of the canonical encoding, with no float ±0 or
// NaN to alias or miss, and no slice or map to make the key unhashable.
// The map holds only the distinct configs a process fingerprints.
var fingerprints = struct {
	sync.RWMutex
	m map[Config]string
}{m: make(map[Config]string)}

// memoKey normalises the neutral fields the way the fingerprint sees
// them — Shards to its engine class, CoreLanes away — so configs that
// share a fingerprint also share a memo entry.
func (c Config) memoKey() Config {
	if c.Shards != 0 {
		c.Shards = 1
	}
	c.CoreLanes = 0
	return c
}
