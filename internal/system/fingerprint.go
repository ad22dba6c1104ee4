package system

import (
	"sync"

	"repro/internal/resultcache"
)

// configSchema versions the fingerprint derivation itself; bump it when
// the meaning of an existing field changes without its name or type
// changing (the canonical encoding cannot see that).
//
// v3: Shards and CoreLanes are encoded like every other field (v2
// masked them and keyed only the engine class); caches warmed under v2
// never hit again — prune them with `pimmu cache-gc` after a
// code-version bump, or leave them to age out.
const configSchema = "system.Config/v3"

// Fingerprint returns a stable content digest of the configuration:
// every exported field — recursively, covering the memory system, CPU,
// PIM geometry, DCE, energy model, transfer engines, design point and
// engine class — is canonically encoded and hashed. Two configs share a
// fingerprint iff every field agrees (proven per-field by the
// reflection-based sensitivity test), so the fingerprint is a sound
// cache-key component for any result that is a pure function of the
// machine: by the determinism contract, that is every simulation
// result. Worker counts are not Config fields, so they never reach it.
//
// The digest is computed once per distinct configuration per process
// (see fingerprints); later calls return the memoised string.
func (c Config) Fingerprint() string {
	fingerprints.RLock()
	fp, ok := fingerprints.m[c]
	fingerprints.RUnlock()
	if ok {
		return fp
	}
	fp = c.fingerprint()
	fingerprints.Lock()
	fingerprints.m[c] = fp
	fingerprints.Unlock()
	return fp
}

// fingerprint is the uncached derivation behind Fingerprint: the
// reflective canonical walk plus the hash.
func (c Config) fingerprint() string {
	return resultcache.KeyOf(configSchema, string(resultcache.Canonical(c)))
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
