package harness

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/resultcache"
)

var update = flag.Bool("update", false, "rewrite testdata/plan_keys.golden with the current plan keys")

// planKeysGolden is the pinned plan-key file at the repository root.
// Regenerate deliberately with:
//
//	go test ./internal/harness -run PlanKeysGolden -update
var planKeysGolden = filepath.Join("..", "..", "testdata", "plan_keys.golden")

// renderPlanKeys lists every experiment's plan keys at both scales
// under a fixed code-version stamp, one "experiment scale index key"
// line per job.
func renderPlanKeys() string {
	resultcache.SetCodeVersion("plan-test")
	defer resultcache.SetCodeVersion("")
	var b strings.Builder
	r := &Runner{}
	for _, sc := range []Scale{Quick, Full} {
		for _, e := range All() {
			for i, j := range e.Plan(r, sc).Jobs {
				fmt.Fprintf(&b, "%s %v %d %s\n", e.Name, sc, i, j.Key)
			}
		}
	}
	return b.String()
}

// TestPlanKeysGolden pins every plan key byte for byte: the keys address
// the persisted result cache, so any change to how a plan derives them
// (the config fingerprint, an op string, the key layout) must show up
// here as a deliberate regeneration.
func TestPlanKeysGolden(t *testing.T) {
	got := renderPlanKeys()
	if *update {
		if err := os.WriteFile(planKeysGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(planKeysGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("plan keys differ from %s at line %d:\n got  %s\n want %s", planKeysGolden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("plan keys differ from %s: %d lines, want %d", planKeysGolden, len(gl), len(wl))
	}
}
