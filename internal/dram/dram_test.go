package dram

import (
	"testing"

	"repro/internal/addrmap"
	"repro/internal/clock"
	"repro/internal/mem"
	"repro/internal/sim"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Geometry = addrmap.Geometry{
		Channels: 2, Ranks: 2, BankGroups: 4, Banks: 4, Rows: 1024, Cols: 128,
	}
	return cfg
}

// driver feeds a fixed list of (loc, kind) requests into one channel with
// unbounded retry, and records completion times.
type driver struct {
	eng       *sim.Engine
	ch        *Channel
	completed int
	lastDone  clock.Picos
}

func (d *driver) issueAll(locs []addrmap.Loc, kind mem.Kind) {
	var next func(i int)
	next = func(i int) {
		if i >= len(locs) {
			return
		}
		r := &mem.Req{Kind: kind, OnDone: func(now clock.Picos) {
			d.completed++
			if now > d.lastDone {
				d.lastDone = now
			}
		}}
		if d.ch.TryEnqueue(r, locs[i]) {
			next(i + 1)
			return
		}
		d.ch.WaitSpace(func() { next(i) })
	}
	next(0)
}

func seqLocs(n int, bankStride bool) []addrmap.Loc {
	locs := make([]addrmap.Loc, n)
	for i := range locs {
		if bankStride {
			// Rotate bank groups and banks per request, row 0: the pattern
			// a fine-grained MLP mapping produces.
			locs[i] = addrmap.Loc{
				BankGroup: i % 4,
				Bank:      (i / 4) % 4,
				Rank:      (i / 16) % 2,
				Row:       i / 32 / 128,
				Col:       (i / 32) % 128,
			}
		} else {
			// Stream within a single bank: col, then row — the pattern a
			// locality-centric mapping produces.
			locs[i] = addrmap.Loc{Row: i / 128, Col: i % 128}
		}
	}
	return locs
}

func TestIdleReadLatency(t *testing.T) {
	eng := sim.New()
	cfg := smallConfig()
	d := MustNew(eng, cfg, "dram")
	var doneAt clock.Picos
	r := &mem.Req{Kind: mem.Read, OnDone: func(now clock.Picos) { doneAt = now }}
	if !d.Channel(0).TryEnqueue(r, addrmap.Loc{Row: 3, Col: 5}) {
		t.Fatal("enqueue failed on empty controller")
	}
	eng.Run()
	tm := cfg.Timing
	wantCycles := int64(tm.RCD + tm.CL + tm.BL)
	want := tm.Domain().Duration(wantCycles)
	if doneAt != want {
		t.Errorf("idle read latency = %v (%d cycles), want %v (%d cycles)",
			doneAt, tm.Domain().Cycles(doneAt), want, wantCycles)
	}
	st := d.Channel(0).Stats()
	if st.Reads != 1 || st.Acts != 1 || st.RowMisses != 1 || st.RowHits != 0 {
		t.Errorf("stats = %+v, want 1 read, 1 act, 1 row miss", st)
	}
}

func TestRowHitIsCountedAndFaster(t *testing.T) {
	eng := sim.New()
	cfg := smallConfig()
	d := MustNew(eng, cfg, "dram")
	ch := d.Channel(0)
	var first, second clock.Picos
	r1 := &mem.Req{Kind: mem.Read, OnDone: func(now clock.Picos) { first = now }}
	r2 := &mem.Req{Kind: mem.Read, OnDone: func(now clock.Picos) { second = now }}
	ch.TryEnqueue(r1, addrmap.Loc{Row: 7, Col: 0})
	ch.TryEnqueue(r2, addrmap.Loc{Row: 7, Col: 1})
	eng.Run()
	tm := cfg.Timing
	// Second access is a row hit: separated by tCCD_L only.
	gap := tm.Domain().Cycles(second - first)
	if gap != int64(tm.CCDL) {
		t.Errorf("row-hit gap = %d cycles, want tCCD_L = %d", gap, tm.CCDL)
	}
	st := ch.Stats()
	if st.RowHits != 1 || st.RowMisses != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", st.RowHits, st.RowMisses)
	}
}

func TestRowConflictForcesPrecharge(t *testing.T) {
	eng := sim.New()
	cfg := smallConfig()
	d := MustNew(eng, cfg, "dram")
	ch := d.Channel(0)
	done := 0
	cb := func(clock.Picos) { done++ }
	ch.TryEnqueue(&mem.Req{Kind: mem.Read, OnDone: cb}, addrmap.Loc{Row: 1, Col: 0})
	ch.TryEnqueue(&mem.Req{Kind: mem.Read, OnDone: cb}, addrmap.Loc{Row: 2, Col: 0})
	eng.Run()
	st := ch.Stats()
	if done != 2 {
		t.Fatalf("completed %d of 2 requests", done)
	}
	// Exactly one conflict precharge during service (later refresh
	// housekeeping may close the final open row, adding another PRE).
	if st.Pres < 1 || st.RowConflicts != 1 {
		t.Errorf("pres=%d conflicts=%d, want >=1 and exactly 1", st.Pres, st.RowConflicts)
	}
}

// Streaming row-hit reads to a single bank are limited by tCCD_L: the
// sustained rate must be one 64B line per tCCD_L cycles.
func TestSingleBankStreamBandwidth(t *testing.T) {
	eng := sim.New()
	cfg := smallConfig()
	ds := MustNew(eng, cfg, "dram")
	dr := &driver{eng: eng, ch: ds.Channel(0)}
	const n = 2000
	dr.issueAll(seqLocs(n, false), mem.Read)
	eng.Run()
	if dr.completed != n {
		t.Fatalf("completed %d of %d", dr.completed, n)
	}
	tm := cfg.Timing
	cycles := tm.Domain().Cycles(dr.lastDone)
	perLine := float64(cycles) / n
	if perLine < float64(tm.CCDL)*0.98 || perLine > float64(tm.CCDL)*1.15 {
		t.Errorf("single-bank stream: %.2f cycles/line, want ~tCCD_L=%d", perLine, tm.CCDL)
	}
}

// Bank-group-interleaved streaming must reach the channel's peak: one line
// per tBL cycles (~19.2 GB/s on DDR4-2400).
func TestInterleavedStreamReachesPeak(t *testing.T) {
	eng := sim.New()
	cfg := smallConfig()
	ds := MustNew(eng, cfg, "dram")
	dr := &driver{eng: eng, ch: ds.Channel(0)}
	const n = 4000
	dr.issueAll(seqLocs(n, true), mem.Read)
	eng.Run()
	if dr.completed != n {
		t.Fatalf("completed %d of %d", dr.completed, n)
	}
	tm := cfg.Timing
	cycles := tm.Domain().Cycles(dr.lastDone)
	perLine := float64(cycles) / n
	if perLine > float64(tm.BL)*1.10 {
		t.Errorf("interleaved stream: %.2f cycles/line, want ~tBL=%d (peak)", perLine, tm.BL)
	}
}

// Writes to interleaved banks must also stream at near peak.
func TestInterleavedWriteBandwidth(t *testing.T) {
	eng := sim.New()
	cfg := smallConfig()
	ds := MustNew(eng, cfg, "dram")
	dr := &driver{eng: eng, ch: ds.Channel(0)}
	const n = 4000
	dr.issueAll(seqLocs(n, true), mem.Write)
	eng.Run()
	if dr.completed != n {
		t.Fatalf("completed %d of %d", dr.completed, n)
	}
	tm := cfg.Timing
	perLine := float64(tm.Domain().Cycles(dr.lastDone)) / n
	if perLine > float64(tm.BL)*1.15 {
		t.Errorf("interleaved writes: %.2f cycles/line, want ~tBL=%d", perLine, tm.BL)
	}
}

// Strictly dependent accesses that alternate rows in one bank are limited
// by the row cycle: each access needs PRE+ACT+CAS of a fresh row.
// (With a deep queue FR-FCFS would legally coalesce the hits, so this test
// serializes: each request is issued only after the previous completes.)
func TestSameBankRowThrashingLimitedByTRC(t *testing.T) {
	eng := sim.New()
	cfg := smallConfig()
	ds := MustNew(eng, cfg, "dram")
	ch := ds.Channel(0)
	const n = 100
	var lastDone clock.Picos
	var issue func(i int)
	issue = func(i int) {
		if i >= n {
			return
		}
		r := &mem.Req{Kind: mem.Read, OnDone: func(now clock.Picos) {
			lastDone = now
			issue(i + 1)
		}}
		ch.TryEnqueue(r, addrmap.Loc{Row: i % 2 * 100, Col: 0})
	}
	issue(0)
	eng.Run()
	tm := cfg.Timing
	perLine := float64(tm.Domain().Cycles(lastDone)) / n
	// Each serialized conflict access costs at least tRP+tRCD+CL+BL.
	minCost := float64(tm.RP + tm.RCD + tm.CL + tm.BL)
	if perLine < minCost*0.95 {
		t.Errorf("row-thrash rate %.2f cycles/access violates PRE+ACT+CAS = %.0f", perLine, minCost)
	}
}

// The queue must reject request #65 and fire WaitSpace when draining.
func TestQueueBackpressure(t *testing.T) {
	eng := sim.New()
	cfg := smallConfig()
	ds := MustNew(eng, cfg, "dram")
	ch := ds.Channel(0)
	// Fill beyond capacity without running the engine.
	accepted := 0
	for i := 0; i < cfg.QueueDepth+10; i++ {
		r := &mem.Req{Kind: mem.Read}
		if ch.TryEnqueue(r, addrmap.Loc{Row: 0, Col: i % 128}) {
			accepted++
		}
	}
	if accepted != cfg.QueueDepth {
		t.Fatalf("accepted %d requests, want %d", accepted, cfg.QueueDepth)
	}
	if ch.Stats().QueueFull != 10 {
		t.Errorf("QueueFull = %d, want 10", ch.Stats().QueueFull)
	}
	woke := false
	ch.WaitSpace(func() { woke = true })
	eng.Run()
	if !woke {
		t.Error("WaitSpace callback never fired")
	}
}

// Refresh: during a long busy stretch, each rank must issue one REF per
// tREFI on average, and no starvation may occur.
func TestRefreshRate(t *testing.T) {
	eng := sim.New()
	cfg := smallConfig()
	ds := MustNew(eng, cfg, "dram")
	dr := &driver{eng: eng, ch: ds.Channel(0)}
	const n = 60000 // ~50 us of traffic at peak
	dr.issueAll(seqLocs(n, true), mem.Read)
	eng.Run()
	st := ds.Channel(0).Stats()
	dur := dr.lastDone
	tm := cfg.Timing
	wantRefs := float64(dur) / float64(tm.Domain().Duration(int64(tm.REFI))) * float64(cfg.Geometry.Ranks)
	if float64(st.Refs) < wantRefs*0.7 || float64(st.Refs) > wantRefs*1.3 {
		t.Errorf("refs = %d over %v, want ~%.0f", st.Refs, dur, wantRefs)
	}
	if dr.completed != n {
		t.Errorf("completed %d of %d (refresh starved requests?)", dr.completed, n)
	}
}

// tFAW: activations to many distinct banks cannot exceed 4 per tFAW window
// per rank. Issue row misses round-robin over 16 banks and verify the ACT
// rate bound holds.
func TestFAWBoundsActivationRate(t *testing.T) {
	eng := sim.New()
	cfg := smallConfig()
	ds := MustNew(eng, cfg, "dram")
	dr := &driver{eng: eng, ch: ds.Channel(0)}
	const n = 400
	locs := make([]addrmap.Loc, n)
	for i := range locs {
		locs[i] = addrmap.Loc{
			BankGroup: i % 4, Bank: (i / 4) % 4,
			Row: i, Col: 0, // every access a fresh row => ACT each time
		}
	}
	dr.issueAll(locs, mem.Read)
	eng.Run()
	tm := cfg.Timing
	cycles := tm.Domain().Cycles(dr.lastDone)
	maxActs := float64(cycles)/float64(tm.FAW)*4 + 8
	if float64(n) > maxActs {
		t.Errorf("%d ACTs in %d cycles exceeds tFAW bound %.0f", n, cycles, maxActs)
	}
}

// Write-then-read to the same rank must respect tWTR: a read issued right
// after a write burst completes may not return its data before
// tWTR_L + CL + BL later.
func TestWriteToReadTurnaround(t *testing.T) {
	eng := sim.New()
	cfg := smallConfig()
	ds := MustNew(eng, cfg, "dram")
	ch := ds.Channel(0)
	var wDone, rDone clock.Picos
	r := &mem.Req{Kind: mem.Read, OnDone: func(now clock.Picos) { rDone = now }}
	w := &mem.Req{Kind: mem.Write, OnDone: func(now clock.Picos) {
		wDone = now
		// Issue the read the moment the write burst finishes; the row is
		// still open so only turnaround constraints apply.
		ch.TryEnqueue(r, addrmap.Loc{Row: 0, Col: 1})
	}}
	ch.TryEnqueue(w, addrmap.Loc{Row: 0, Col: 0})
	eng.Run()
	tm := cfg.Timing
	minGap := tm.Domain().Duration(int64(tm.WTRL + tm.CL + tm.BL))
	if rDone-wDone < minGap {
		t.Errorf("W->R gap = %v, want >= %v (tWTR_L + CL + BL)", rDone-wDone, minGap)
	}
}

// Determinism: two identical runs must produce identical counters and
// completion times.
func TestDeterminism(t *testing.T) {
	run := func() (clock.Picos, [8]uint64) {
		eng := sim.New()
		ds := MustNew(eng, smallConfig(), "dram")
		dr := &driver{eng: eng, ch: ds.Channel(0)}
		locs := make([]addrmap.Loc, 3000)
		// Mix of hits, misses and conflicts from a pseudo-random pattern.
		x := uint64(12345)
		for i := range locs {
			x = x*6364136223846793005 + 1442695040888963407
			locs[i] = addrmap.Loc{
				Rank:      int(x>>60) & 1,
				BankGroup: int(x>>40) & 3,
				Bank:      int(x>>20) & 3,
				Row:       int(x>>10) & 1023,
				Col:       int(x) & 127,
			}
		}
		dr.issueAll(locs, mem.Read)
		eng.Run()
		st := ds.Channel(0).Stats()
		sum := [8]uint64{st.Reads, st.Acts, st.Pres, st.Refs,
			st.RowHits, st.RowMisses, st.RowConflicts, st.BytesRead}
		return dr.lastDone, sum
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 {
		t.Errorf("completion times differ: %v vs %v", t1, t2)
	}
	if s1 != s2 {
		t.Errorf("stats differ:\n%+v\n%+v", s1, s2)
	}
}

// Mixed read/write traffic: drain mode must bound write-queue residency so
// both kinds complete.
func TestWriteDrainServesBothKinds(t *testing.T) {
	eng := sim.New()
	cfg := smallConfig()
	ds := MustNew(eng, cfg, "dram")
	ch := ds.Channel(0)
	reads, writes := 0, 0
	var issue func(i int)
	const n = 1000
	issue = func(i int) {
		if i >= n {
			return
		}
		kind := mem.Read
		if i%2 == 0 {
			kind = mem.Write
		}
		cb := func(clock.Picos) {
			if kind == mem.Read {
				reads++
			} else {
				writes++
			}
		}
		r := &mem.Req{Kind: kind, OnDone: cb}
		loc := addrmap.Loc{BankGroup: i % 4, Bank: (i / 4) % 4, Row: 0, Col: (i / 16) % 128}
		if ch.TryEnqueue(r, loc) {
			issue(i + 1)
			return
		}
		ch.WaitSpace(func() { issue(i) })
	}
	issue(0)
	eng.Run()
	if reads != n/2 || writes != n/2 {
		t.Errorf("completed %d reads, %d writes; want %d each", reads, writes, n/2)
	}
	st := ch.Stats()
	if st.BytesRead != uint64(n/2*64) || st.BytesWritten != uint64(n/2*64) {
		t.Errorf("bytes r/w = %d/%d, want %d each", st.BytesRead, st.BytesWritten, n/2*64)
	}
}

// Series stats: enabling SeriesWindow must bucket completed write bytes.
func TestBandwidthSeries(t *testing.T) {
	eng := sim.New()
	cfg := smallConfig()
	cfg.SeriesWindow = clock.Microsecond
	ds := MustNew(eng, cfg, "dram")
	dr := &driver{eng: eng, ch: ds.Channel(0)}
	const n = 3000
	dr.issueAll(seqLocs(n, true), mem.Write)
	eng.Run()
	s := ds.Channel(0).Stats().WriteSeries
	if s == nil {
		t.Fatal("WriteSeries not enabled")
	}
	if s.Total() != float64(n*64) {
		t.Errorf("series total = %.0f, want %d", s.Total(), n*64)
	}
}

func TestConfigValidate(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := cfg
	bad.QueueDepth = 0
	if bad.Validate() == nil {
		t.Error("QueueDepth=0 accepted")
	}
	bad = cfg
	bad.WriteDrainLo = bad.WriteDrainHi
	if bad.Validate() == nil {
		t.Error("drainLo >= drainHi accepted")
	}
	bad = cfg
	bad.Timing.RC = 1
	if bad.Validate() == nil {
		t.Error("tRC < tRAS+tRP accepted")
	}
}

func TestTimingPresets(t *testing.T) {
	for _, tm := range []Timing{DDR42400(), DDR43200()} {
		if err := tm.Validate(); err != nil {
			t.Errorf("preset invalid: %v", err)
		}
	}
	if bw := DDR42400().PeakChannelBandwidth(); bw != 19.2e9 {
		t.Errorf("DDR4-2400 peak = %v, want 19.2e9", bw)
	}
	if bw := DDR43200().PeakChannelBandwidth(); bw != 25.6e9 {
		t.Errorf("DDR4-3200 peak = %v, want 25.6e9", bw)
	}
}

func TestDeviceSetBasics(t *testing.T) {
	eng := sim.New()
	cfg := smallConfig()
	ds := MustNew(eng, cfg, "pim")
	if ds.Name() != "pim" {
		t.Errorf("Name = %q", ds.Name())
	}
	if len(ds.Channels()) != cfg.Geometry.Channels {
		t.Errorf("channels = %d, want %d", len(ds.Channels()), cfg.Geometry.Channels)
	}
	if !ds.Idle() {
		t.Error("fresh device set not idle")
	}
	if got := ds.PeakBandwidth(); got != 19.2e9*2 {
		t.Errorf("PeakBandwidth = %v, want 38.4e9", got)
	}
	if _, err := New(eng, Config{}, "bad"); err == nil {
		t.Error("New with zero config succeeded")
	}
}

func TestRowHitRateAccounting(t *testing.T) {
	eng := sim.New()
	ds := MustNew(eng, smallConfig(), "dram")
	dr := &driver{eng: eng, ch: ds.Channel(0)}
	dr.issueAll(seqLocs(256, false), mem.Read) // 2 rows x 128 cols
	eng.Run()
	st := ds.Channel(0).Stats()
	if hr := st.RowHitRate(); hr < 0.95 {
		t.Errorf("sequential stream row hit rate = %.3f, want > 0.95", hr)
	}
}
