package system

import (
	"fmt"
	"reflect"
	"sync"
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
// field of Config changes Fingerprint(), Shards and CoreLanes included.
// This is the property the result cache's soundness rests on: no
// configuration change can alias into a stale cache entry. Every
// perturbed config's memoised fingerprint must also equal a fresh
// uncached walk: the memo may never answer for a config it did not see.
func TestFingerprintSensitivity(t *testing.T) {
	cfg := DefaultConfig(PIMMMU)
	base := cfg.Fingerprint()
	leaves := 0
	perturbLeaves(t, reflect.ValueOf(&cfg).Elem(), "Config", func(path string) {
		leaves++
		got := cfg.Fingerprint()
		if got == "" {
			t.Errorf("perturbing %s produced an empty fingerprint", path)
		}
		if fresh := cfg.fingerprint(); got != fresh {
			t.Errorf("perturbing %s: memoised fingerprint %s != uncached walk %s", path, got, fresh)
		}
		if got == base {
			t.Errorf("perturbing %s did not change the fingerprint", path)
		}
	})
	if leaves < 80 {
		t.Fatalf("walked only %d leaf fields; the config walk regressed", leaves)
	}
	// Every perturbation was restored, so the fingerprint is back to base.
	if cfg.Fingerprint() != base {
		t.Fatal("perturbation restore leaked state")
	}
}

// TestConfigLeavesAreComparable guards the Fingerprint memo's key: the
// memo looks configs up by Go ==, which matches equality of the
// canonical encoding only while every leaf is an integer or a bool. A
// float leaf would alias +0 with -0 and never hit on NaN; a slice, map
// or func leaf would panic as a map key; a pointer would compare by
// address, not by the content the encoding sees. Any other kind must be
// argued sound here before it joins the key.
func TestConfigLeavesAreComparable(t *testing.T) {
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Bool,
			reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(typ.Field(i).Type, path+"."+typ.Field(i).Name)
			}
		case reflect.Array:
			walk(typ.Elem(), path+"[]")
		default:
			t.Errorf("%s has kind %s: the Fingerprint memo keys on Config by ==, which needs integer and bool leaves only; "+
				"give this field an integer encoding or drop the memo (fingerprints in fingerprint.go)", path, typ.Kind())
		}
	}
	walk(reflect.TypeOf(Config{}), "Config")
}

// TestFingerprintConcurrent fingerprints shared and distinct configs
// from many goroutines at once (run under -race in CI): every result
// must equal the uncached walk of the same config.
func TestFingerprintConcurrent(t *testing.T) {
	const goroutines = 8
	configs := make([]Config, 0, 2*goroutines)
	for _, d := range Designs() {
		configs = append(configs, DefaultConfig(d)) // shared by every goroutine
	}
	for g := 0; g < goroutines; g++ {
		cfg := DefaultConfig(PIMMMU) // distinct per goroutine
		cfg.Mem.DRAM.QueueDepth += 1000 + g
		configs = append(configs, cfg)
	}
	want := make([]string, len(configs))
	for i, cfg := range configs {
		want[i] = cfg.fingerprint()
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				for i := range configs {
					k := (i + g) % len(configs)
					if got := configs[k].Fingerprint(); got != want[k] {
						t.Errorf("goroutine %d: config %d fingerprints %s, want %s", g, k, got, want[k])
					}
				}
			}
		}()
	}
	wg.Wait()
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
