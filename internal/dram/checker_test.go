package dram

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/addrmap"
	"repro/internal/clock"
	"repro/internal/mem"
	"repro/internal/sim"
)

// runCheckedTraffic drives n requests through a checked channel and
// returns the violations.
func runCheckedTraffic(t *testing.T, seed int64, n int, readFrac float64) []string {
	t.Helper()
	eng := sim.New()
	cfg := smallConfig()
	ds := mustNew(eng, cfg, "dram")
	ch := ds.Channel(0)
	chk := NewChecker(cfg)
	ch.Observe(chk)

	rng := rand.New(rand.NewSource(seed))
	completed := 0
	var issue func(i int)
	issue = func(i int) {
		if i >= n {
			return
		}
		kind := mem.Write
		if rng.Float64() < readFrac {
			kind = mem.Read
		}
		loc := addrmap.Loc{
			Rank:      rng.Intn(cfg.Geometry.Ranks),
			BankGroup: rng.Intn(cfg.Geometry.BankGroups),
			Bank:      rng.Intn(cfg.Geometry.Banks),
			Row:       rng.Intn(64), // few rows => heavy conflicts
			Col:       rng.Intn(cfg.Geometry.Cols),
		}
		r := &mem.Req{Kind: kind, OnDone: func(clock.Picos) { completed++ }}
		if ch.TryEnqueue(r, loc) {
			issue(i + 1)
			return
		}
		ch.WaitSpace(func() { issue(i) })
	}
	issue(0)
	eng.Run()
	if completed != n {
		t.Fatalf("completed %d of %d requests", completed, n)
	}
	return chk.Violations()
}

// The controller must never violate the DDR4 protocol, across several
// random traffic mixes. This is the model's core safety property.
func TestControllerObeysProtocolUnderRandomTraffic(t *testing.T) {
	for _, tc := range []struct {
		seed     int64
		readFrac float64
	}{
		{1, 1.0}, // read-only
		{2, 0.0}, // write-only
		{3, 0.5}, // mixed
		{4, 0.9}, // read-heavy
		{5, 0.1}, // write-heavy
	} {
		v := runCheckedTraffic(t, tc.seed, 4000, tc.readFrac)
		if len(v) != 0 {
			t.Errorf("seed %d (%.0f%% reads): %d protocol violations; first: %s",
				tc.seed, tc.readFrac*100, len(v), v[0])
		}
	}
}

// Sequential streaming traffic (the transfer pattern) must also be clean.
func TestControllerObeysProtocolOnStreams(t *testing.T) {
	eng := sim.New()
	cfg := smallConfig()
	ds := mustNew(eng, cfg, "dram")
	ch := ds.Channel(0)
	chk := NewChecker(cfg)
	ch.Observe(chk)
	dr := &driver{eng: eng, ch: ch}
	dr.issueAll(seqLocs(6000, true), mem.Read)
	eng.Run()
	if v := chk.Violations(); len(v) != 0 {
		t.Fatalf("%d violations on interleaved stream; first: %s", len(v), v[0])
	}
}

// The checker itself must detect violations when fed an illegal sequence
// directly (it is only as useful as its teeth).
func TestCheckerDetectsViolations(t *testing.T) {
	cfg := smallConfig()
	tm := cfg.Timing
	cases := []struct {
		name   string
		events []CmdEvent
		rule   string // a violation must name it
	}{
		{"CAS to closed bank", []CmdEvent{
			{Cycle: 0, Cmd: CmdRD, Row: 0},
		}, "CAS to closed bank"},
		{"tRCD", []CmdEvent{
			{Cycle: 0, Cmd: CmdACT, Row: 5},
			{Cycle: int64(tm.RCD) - 1, Cmd: CmdRD, Row: 5},
		}, "tRCD violated"},
		{"wrong row", []CmdEvent{
			{Cycle: 0, Cmd: CmdACT, Row: 5},
			{Cycle: 100, Cmd: CmdRD, Row: 6},
		}, "but open row is"},
		{"tRAS", []CmdEvent{
			{Cycle: 0, Cmd: CmdACT, Row: 5},
			{Cycle: int64(tm.RAS) - 1, Cmd: CmdPRE},
		}, "tRAS violated"},
		{"tRP", []CmdEvent{
			{Cycle: 0, Cmd: CmdACT, Row: 5},
			{Cycle: 100, Cmd: CmdPRE},
			{Cycle: 100 + int64(tm.RP) - 1, Cmd: CmdACT, Row: 6},
		}, "tRP violated"},
		{"tCCD_L", []CmdEvent{
			{Cycle: 0, Cmd: CmdACT, Row: 5},
			{Cycle: 100, Cmd: CmdRD, Row: 5},
			{Cycle: 100 + int64(tm.CCDL) - 1, Cmd: CmdRD, Row: 5, Col: 1},
		}, "tCCD_L violated"},
		{"double ACT", []CmdEvent{
			{Cycle: 0, Cmd: CmdACT, Row: 5},
			{Cycle: 1000, Cmd: CmdACT, Row: 6},
		}, "ACT to open bank"},
		{"tFAW", []CmdEvent{
			{Cycle: 0, Cmd: CmdACT, Bank: 0, Row: 1},
			{Cycle: int64(tm.RRDS), Cmd: CmdACT, Bank: 1, Row: 1},
			{Cycle: 2 * int64(tm.RRDS), Cmd: CmdACT, Bank: 2, Row: 1},
			{Cycle: 3 * int64(tm.RRDS), Cmd: CmdACT, Bank: 3, Row: 1},
			{Cycle: int64(tm.FAW) - 1, Cmd: CmdACT, BankGrp: 1, Row: 1},
		}, "tFAW violated"},
		{"REF with open bank", []CmdEvent{
			{Cycle: 0, Cmd: CmdACT, Row: 5},
			{Cycle: 1000, Cmd: CmdREF, Bank: -1, BankGrp: -1},
		}, "REF with open bank"},
		{"tWTR", []CmdEvent{
			{Cycle: 0, Cmd: CmdACT, Row: 5},
			{Cycle: 100, Cmd: CmdWR, Row: 5},
			{Cycle: 100 + int64(tm.CCDL), Cmd: CmdRD, Row: 5, Col: 1},
		}, "tWTR_S violated"},
		// Past tWTR_S but inside tWTR_L: the RD is in the WR's bank group.
		{"tWTR_L same bank group", []CmdEvent{
			{Cycle: 0, Cmd: CmdACT, Row: 5},
			{Cycle: 100, Cmd: CmdWR, Row: 5},
			{Cycle: 100 + int64(tm.CWL+tm.BL+tm.WTRS), Cmd: CmdRD, Row: 5, Col: 1},
		}, "tWTR_L violated"},
		// Back-to-back read bursts on two ranks, with no switch bubble.
		{"tRTRS rank switch", []CmdEvent{
			{Cycle: 0, Cmd: CmdACT, Rank: 0, Row: 5},
			{Cycle: 0, Cmd: CmdACT, Rank: 1, Row: 5},
			{Cycle: 100, Cmd: CmdRD, Rank: 0, Row: 5},
			{Cycle: 100 + int64(tm.BL), Cmd: CmdRD, Rank: 1, Row: 5},
		}, "tRTRS violated"},
		// A write burst starting as the read burst ends, in one rank.
		{"tRTRS read to write", []CmdEvent{
			{Cycle: 0, Cmd: CmdACT, BankGrp: 0, Row: 5},
			{Cycle: int64(tm.RRDS), Cmd: CmdACT, BankGrp: 1, Row: 5},
			{Cycle: 100, Cmd: CmdRD, BankGrp: 0, Row: 5},
			{Cycle: 100 + int64(tm.CL-tm.CWL+tm.BL), Cmd: CmdWR, BankGrp: 1, Row: 5},
		}, "tRTRS violated"},
	}
	for _, tc := range cases {
		chk := NewChecker(cfg)
		for _, e := range tc.events {
			chk.Command(0, e)
		}
		if v := chk.Violations(); !strings.Contains(strings.Join(v, "\n"), tc.rule) {
			t.Errorf("%s: checker missed the violation: no %q among %v", tc.name, tc.rule, v)
		}
	}
}

// A legal hand-built sequence must produce no violations (no false
// positives). The rank-1 column commands sit exactly on the tRTRS and
// tWTR_L bounds.
func TestCheckerAcceptsLegalSequence(t *testing.T) {
	cfg := smallConfig()
	tm := cfg.Timing
	chk := NewChecker(cfg)
	act := int64(0)
	rd1 := act + int64(tm.RCD)
	rd2 := rd1 + int64(tm.CCDL)
	rd3 := rd2 + int64(tm.BL+tm.RTRS)             // rank switch
	wr := rd3 + int64(tm.CL-tm.CWL+tm.BL+tm.RTRS) // read -> write
	rd4 := wr + int64(tm.CWL+tm.BL+tm.WTRL)       // write -> read, same bg
	pre := rd2 + int64(tm.RTP) + int64(tm.RAS)    // comfortably past tRAS
	act2 := pre + int64(tm.RP)
	for _, e := range []CmdEvent{
		{Cycle: act, Cmd: CmdACT, Row: 3},
		{Cycle: act, Cmd: CmdACT, Rank: 1, Row: 3},
		{Cycle: rd1, Cmd: CmdRD, Row: 3, Col: 0},
		{Cycle: rd2, Cmd: CmdRD, Row: 3, Col: 1},
		{Cycle: rd3, Cmd: CmdRD, Rank: 1, Row: 3},
		{Cycle: wr, Cmd: CmdWR, Rank: 1, Row: 3, Col: 1},
		{Cycle: rd4, Cmd: CmdRD, Rank: 1, Row: 3, Col: 2},
		{Cycle: pre, Cmd: CmdPRE},
		{Cycle: act2, Cmd: CmdACT, Row: 9},
	} {
		chk.Command(0, e)
	}
	if v := chk.Violations(); len(v) != 0 {
		t.Fatalf("false positives: %v", v)
	}
}

// The observer hook must see exactly the commands the stats count.
func TestObserverCountsMatchStats(t *testing.T) {
	eng := sim.New()
	cfg := smallConfig()
	ds := mustNew(eng, cfg, "dram")
	ch := ds.Channel(0)
	counts := map[Cmd]uint64{}
	ch.Observe(observerFunc(func(_ int, e CmdEvent) { counts[e.Cmd]++ }))
	dr := &driver{eng: eng, ch: ch}
	dr.issueAll(seqLocs(2000, true), mem.Write)
	eng.Run()
	st := ch.stats
	if counts[CmdWR] != st.Writes || counts[CmdACT] != st.Acts ||
		counts[CmdPRE] != st.Pres || counts[CmdREF] != st.Refs {
		t.Errorf("observer counts %v vs stats %+v", counts, st)
	}
}

type observerFunc func(ch int, e CmdEvent)

func (f observerFunc) Command(ch int, e CmdEvent) { f(ch, e) }

func TestCmdString(t *testing.T) {
	for c, want := range map[Cmd]string{CmdACT: "ACT", CmdPRE: "PRE",
		CmdRD: "RD", CmdWR: "WR", CmdREF: "REF", Cmd(9): "?"} {
		if got := c.String(); got != want {
			t.Errorf("Cmd(%d).String() = %q", int(c), got)
		}
	}
}
