package system

import (
	"fmt"
	"reflect"
	"testing"
)

func TestFingerprintStable(t *testing.T) {
	a := DefaultConfig(PIMMMU).Fingerprint()
	b := DefaultConfig(PIMMMU).Fingerprint()
	if a != b {
		t.Fatalf("identical configs fingerprint differently: %s vs %s", a, b)
	}
	if len(a) != 64 {
		t.Fatalf("fingerprint %q is not a sha256 hex digest", a)
	}
	if DefaultConfig(Base).Fingerprint() == a {
		t.Fatal("distinct design points share a fingerprint")
	}
}

// TestFingerprintSensitivity proves — by reflection, so a newly added
// field is covered automatically — that perturbing ANY exported leaf
// field of Config changes Fingerprint(), except the declared
// result-neutral Shards/CoreLanes fields, whose perturbation must NOT
// change it. This is the property the result cache's soundness rests
// on: no result-affecting configuration change can alias into a stale
// cache entry, and no result-neutral one can force a re-simulation.
func TestFingerprintSensitivity(t *testing.T) {
	cfg := DefaultConfig(PIMMMU)
	// Start from a sharded design point so the +1 perturbation of the
	// neutral fields stays inside the sharded engine class (0 -> 1 would
	// legitimately change the key; see engineClass).
	cfg.Shards, cfg.CoreLanes = 1, 2
	base := cfg.Fingerprint()
	neutral := map[string]bool{"Config.Shards": true, "Config.CoreLanes": true}
	leaves, neutralLeaves := 0, 0
	perturbLeaves(t, reflect.ValueOf(&cfg).Elem(), "Config", func(path string) {
		leaves++
		got := cfg.Fingerprint()
		if got == "" {
			t.Errorf("perturbing %s produced an empty fingerprint", path)
		}
		if neutral[path] {
			neutralLeaves++
			if got != base {
				t.Errorf("perturbing result-neutral %s changed the fingerprint", path)
			}
			return
		}
		if got == base {
			t.Errorf("perturbing %s did not change the fingerprint", path)
		}
	})
	if leaves < 80 {
		t.Fatalf("walked only %d leaf fields; the config walk regressed", leaves)
	}
	if neutralLeaves != len(neutral) {
		t.Fatalf("visited %d neutral leaves, want %d; the mask drifted from Config", neutralLeaves, len(neutral))
	}
	// Every perturbation was restored, so the fingerprint is back to base.
	if cfg.Fingerprint() != base {
		t.Fatal("perturbation restore leaked state")
	}
}

// TestFingerprintResultNeutralFields pins the cross-shard reuse contract
// directly: every non-zero Shards value, Auto included, with any
// (ignored) CoreLanes value shares one fingerprint, while the plain
// engine (Shards == 0) keeps its own.
func TestFingerprintResultNeutralFields(t *testing.T) {
	ref := DefaultConfig(PIMMMU)
	ref.Shards = 1
	base := ref.Fingerprint()
	for _, tc := range []struct{ shards, coreLanes int }{
		{1, 0}, {1, 1}, {1, 4}, {4, 0}, {4, 4}, {Auto, Auto}, {2, Auto}, {Auto, 0},
	} {
		cfg := DefaultConfig(PIMMMU)
		cfg.Shards, cfg.CoreLanes = tc.shards, tc.coreLanes
		if got := cfg.Fingerprint(); got != base {
			t.Errorf("shards=%d CoreLanes=%d: fingerprint %s != sharded base %s",
				tc.shards, tc.coreLanes, got, base)
		}
	}
	plain := DefaultConfig(PIMMMU) // Shards = 0: the plain serial engine
	if plain.Shards != 0 {
		t.Fatalf("DefaultConfig no longer defaults to the plain engine (Shards=%d); update this test", plain.Shards)
	}
	if plain.Fingerprint() == base {
		t.Error("plain engine shares the sharded fingerprint; its event order differs (see Config.Shards)")
	}
}

// perturbLeaves visits every settable leaf field under v; at each leaf it
// flips the value, calls check, and restores the original.
func perturbLeaves(t *testing.T, v reflect.Value, path string, check func(path string)) {
	switch v.Kind() {
	case reflect.Bool:
		old := v.Bool()
		v.SetBool(!old)
		check(path)
		v.SetBool(old)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		old := v.Int()
		v.SetInt(old + 1)
		check(path)
		v.SetInt(old)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		old := v.Uint()
		v.SetUint(old + 1)
		check(path)
		v.SetUint(old)
	case reflect.Float32, reflect.Float64:
		old := v.Float()
		v.SetFloat(old + 1)
		check(path)
		v.SetFloat(old)
	case reflect.String:
		old := v.String()
		v.SetString(old + "~")
		check(path)
		v.SetString(old)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				t.Fatalf("%s.%s is unexported; Canonical would panic — restructure the config", path, f.Name)
			}
			perturbLeaves(t, v.Field(i), path+"."+f.Name, check)
		}
	case reflect.Array, reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			perturbLeaves(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), check)
		}
	default:
		t.Fatalf("%s has kind %s, which the canonical encoding does not support", path, v.Kind())
	}
}
