package system

import (
	"reflect"
	"strings"
	"testing"
)

// TestLaneFlagValidation covers the error paths of the shard setting:
// counts below Auto are rejected; CoreLanes is ignored.
func TestLaneFlagValidation(t *testing.T) {
	cases := []struct {
		name              string
		shards, coreLanes int
		wantErr           string
	}{
		{"negative shards", -2, 0, "invalid shard count"},
		{"plain ok", 0, 0, ""},
		{"sharded ok", 4, 8, ""},
		{"auto ok", Auto, Auto, ""},
		{"core lanes ignored", 0, -5, ""},
	}
	for _, tc := range cases {
		cfg := DefaultConfig(PIMMMU)
		cfg.Shards = tc.shards
		cfg.CoreLanes = tc.coreLanes
		err := cfg.Validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error = %v, want one containing %q", tc.name, err, tc.wantErr)
		}
		if _, nerr := New(cfg); nerr == nil {
			t.Errorf("%s: New accepted the invalid config", tc.name)
		}
	}
}

// TestParseLaneFlag covers the flag-string form of the shard setting.
func TestParseLaneFlag(t *testing.T) {
	if n, err := ParseLaneFlag("auto"); err != nil || n != Auto {
		t.Errorf(`ParseLaneFlag("auto") = %d, %v; want Auto`, n, err)
	}
	if n, err := ParseLaneFlag("4"); err != nil || n != 4 {
		t.Errorf(`ParseLaneFlag("4") = %d, %v; want 4`, n, err)
	}
	if _, err := ParseLaneFlag("many"); err == nil {
		t.Error(`ParseLaneFlag("many") accepted`)
	}
}

// TestAutoResolution pins what Shards=Auto selects: the sharded engine,
// with the same lanes as any other non-zero count, whatever the host.
func TestAutoResolution(t *testing.T) {
	lanes := func(shards int) []string {
		cfg := DefaultConfig(PIMMMU)
		cfg.Shards = shards
		var names []string
		for _, l := range MustNew(cfg).Eng.ShardStats().Lanes {
			names = append(names, l.Name)
		}
		return names
	}
	auto := lanes(Auto)
	if len(auto) == 0 {
		t.Fatal("Shards=auto built the plain engine")
	}
	if one := lanes(1); !reflect.DeepEqual(auto, one) {
		t.Errorf("Shards=auto lanes %v, Shards=1 lanes %v", auto, one)
	}
	if plain := lanes(0); plain != nil {
		t.Errorf("Shards=0 built lanes %v", plain)
	}
}

// TestBuiltMachineClaimsLanes pins the lane order of the wired machine:
// lane ids are part of the sharded engine's event order.
func TestBuiltMachineClaimsLanes(t *testing.T) {
	cfg := DefaultConfig(PIMMMU)
	cfg.Shards = 1
	var names []string
	for _, l := range MustNew(cfg).Eng.ShardStats().Lanes {
		names = append(names, l.Name)
	}
	want := []string{"dram:0", "dram:1", "dram:2", "dram:3", "pim:0", "pim:1", "pim:2", "pim:3", "dce"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("lanes %v, want %v", names, want)
	}
}
