package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// expectedJSON holds the reference digests: for each oracle key (workload,
// topology class and, for seeded workloads, the seed) a SHA-256 of the
// canonical simulated results of every op.
//
//go:embed testdata/expected.json
var expectedJSON []byte

// references maps oracle key -> op name -> digest.
type references map[string]map[string]string

func loadReferences() (references, error) {
	refs := references{}
	if err := json.Unmarshal(expectedJSON, &refs); err != nil {
		return nil, fmt.Errorf("testdata/expected.json: %w", err)
	}
	return refs, nil
}

// oracleKey names a workload's reference digests.
func oracleKey(w workload, seed uint64) string {
	key := w.name + "/" + w.class
	if w.seeded {
		key += fmt.Sprintf("/seed=%d", seed)
	}
	return key
}

func digest(canon string) string {
	sum := sha256.Sum256([]byte(canon))
	return hex.EncodeToString(sum[:])
}

// oracle checks every op's canonical result against the first round of
// this run and, when the key has references, against the committed
// digest. Rounds identical to round one is the determinism contract; the
// committed digest is the no-change contract between commits.
type oracle struct {
	want   map[string]string // nil: no reference for this key (seed)
	update bool              // -update: record digests, check none against references

	mu  sync.Mutex
	got map[string]string // op -> digest of its first round
}

func newOracle(want map[string]string, update bool) *oracle {
	return &oracle{want: want, update: update, got: map[string]string{}}
}

func (o *oracle) check(op, canon string) error {
	d := digest(canon)
	o.mu.Lock()
	defer o.mu.Unlock()
	first, seen := o.got[op]
	if !seen {
		o.got[op] = d
	} else if d != first {
		return fmt.Errorf("%s: result differs from round 1 (%s, round 1 %s)", op, short(d), short(first))
	}
	if o.update || o.want == nil {
		return nil
	}
	want, ok := o.want[op]
	if !ok {
		return fmt.Errorf("%s: no reference digest (rerun with -update if the op set changed on purpose)", op)
	}
	if d != want {
		return fmt.Errorf("%s: digest %s, reference %s", op, short(d), short(want))
	}
	return nil
}

// digests snapshots the first-round digest of every op.
func (o *oracle) digests() map[string]string {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make(map[string]string, len(o.got))
	for k, v := range o.got {
		out[k] = v
	}
	return out
}

func short(d string) string { return d[:12] }

// writeReferences replaces the digests of the given keys in the source
// file of expected.json, leaving every other key as it was.
func writeReferences(update map[string]map[string]string) error {
	refs, err := loadReferences()
	if err != nil {
		return err
	}
	for k, v := range update {
		refs[k] = v
	}
	data, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(benchDir(), "testdata", "expected.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("-update: %w", err)
	}
	return nil
}

// benchDir locates this package's source directory from the working
// directory: the repository root (bench/run.sh) or bench itself (go run
// ., go test).
func benchDir() string {
	if _, err := os.Stat(filepath.Join("bench", "oracle.go")); err == nil {
		return "bench"
	}
	return "."
}
