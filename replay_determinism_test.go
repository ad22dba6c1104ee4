// Replay determinism: a trace replayed through trace.Driver must
// produce bit-identical statistics on every rerun and at every sweep
// worker count — the acceptance contract of the trace subsystem. The
// checks cover both synthetic traces and a trace recorded live at the
// mem.Port boundary.
package pimmmu_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/system"
	"repro/internal/trace"
)

// replayFingerprint renders everything observable about one replay run.
func replayFingerprint(s *system.System, r trace.LoadResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "issued=%d completed=%d br=%d bw=%d start=%d end=%d latsum=%d retries=%d slip=%d fired=%d now=%d\n",
		r.Issued, r.Completed, r.BytesRead, r.BytesWritten,
		r.Start, r.End, r.ServiceSum, r.Retries, r.Slip,
		s.Eng.Fired(), s.Eng.Now())
	machineFingerprint(&b, s)
	return b.String()
}

// replayCfg replays with 64 requests in flight, cacheable.
var replayCfg = trace.DriverConfig{Process: trace.ProcessReplay, MaxInFlight: 64, Cacheable: true}

// replayJob replays recs on a fresh machine of the given design and
// fingerprints the run.
func replayJob(d system.Design, recs []trace.Record) string {
	s := system.MustNew(system.DefaultConfig(d))
	r, err := s.RunLoad(recs, replayCfg)
	if err != nil {
		panic(err)
	}
	return fmt.Sprintf("design=%v %s", d, replayFingerprint(s, r))
}

// recordTransferTrace captures the port traffic of one small transfer.
func recordTransferTrace(d system.Design, totalBytes uint64) []trace.Record {
	s := system.MustNew(system.DefaultConfig(d))
	rec := s.RecordTrace()
	s.MeasureTransfer(core.DRAMToPIM, totalBytes)
	s.StopTrace()
	return rec.Records()
}

// TestRecordedTraceReplayBitIdentical is the subsystem's acceptance
// check: a trace recorded at the mem.Port boundary, replayed across
// design points, yields byte-identical fingerprints between serial and
// parallel sweeps and across reruns.
func TestRecordedTraceReplayBitIdentical(t *testing.T) {
	recs := recordTransferTrace(system.PIMMMU, 128<<10)
	if len(recs) == 0 {
		t.Fatal("recorder captured nothing")
	}
	if err := trace.Validate(recs); err != nil {
		t.Fatalf("recorded trace invalid: %v", err)
	}
	designs := system.Designs()
	job := func(i int) string { return replayJob(designs[i], recs) }
	serial := sweep.MapN(len(designs), 1, job)
	parallel := sweep.MapN(len(designs), 8, job)
	rerun := sweep.MapN(len(designs), 8, job)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("%v: workers=8 differs from workers=1\n--- serial ---\n%s--- parallel ---\n%s",
				designs[i], serial[i], parallel[i])
		}
		if parallel[i] != rerun[i] {
			t.Errorf("%v: rerun differs\n--- first ---\n%s--- second ---\n%s",
				designs[i], parallel[i], rerun[i])
		}
	}
}

// TestSyntheticReplaySweepMatchesSerial fans the (pattern x design)
// replay matrix across goroutines and requires byte-identical results,
// mirroring the harness replay experiment's sweep shape.
func TestSyntheticReplaySweepMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed sweep")
	}
	patterns := []trace.Pattern{trace.PatternStrided, trace.PatternMixed, trace.PatternZipf}
	designs := []system.Design{system.Base, system.PIMMMU}
	cfg := trace.DefaultGenConfig()
	cfg.Records = 4096
	g := sweep.NewGrid(len(patterns), len(designs))
	job := func(i int) string {
		recs := trace.MustGenerate(patterns[g.Coord(i, 0)], cfg)
		return replayJob(designs[g.Coord(i, 1)], recs)
	}
	serial := sweep.MapN(g.Size(), 1, job)
	parallel := sweep.MapN(g.Size(), 8, job)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("job %d (%s on %v): parallel differs from serial\n--- serial ---\n%s--- parallel ---\n%s",
				i, patterns[g.Coord(i, 0)], designs[g.Coord(i, 1)], serial[i], parallel[i])
		}
	}
}

// TestRecordReplayRoundTripPreservesTraffic replays a recorded trace on
// the same design it was recorded from: the replayed run must move
// exactly the recorded bytes.
func TestRecordReplayRoundTripPreservesTraffic(t *testing.T) {
	recs := recordTransferTrace(system.PIMMMU, 64<<10)
	sum := trace.Summarize(recs)
	s := system.MustNew(system.DefaultConfig(system.PIMMMU))
	r, err := s.RunLoad(recs, replayCfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.BytesRead != sum.BytesRead || r.BytesWritten != sum.BytesWritten {
		t.Errorf("replayed %d/%d bytes, recorded %d/%d",
			r.BytesRead, r.BytesWritten, sum.BytesRead, sum.BytesWritten)
	}
	if r.Completed != uint64(sum.Records) {
		t.Errorf("completed %d line requests, recorded %d", r.Completed, sum.Records)
	}
}

// TestReplayIsFixedDriveOnItsOwnTimeline pins the equivalence the trace
// package is built on: replaying a generated trace with gap g is the
// open-loop ProcessFixed drive of the same records at MeanGap g over
// g*n, with the same in-flight cap and cacheability. Both runs must
// report the same LoadResult field for field and fire the same engine
// events.
func TestReplayIsFixedDriveOnItsOwnTimeline(t *testing.T) {
	const n = 2048
	retried := false
	for _, c := range []struct {
		pattern   trace.Pattern
		design    system.Design
		gap       clock.Picos
		inflight  int
		cacheable bool
	}{
		{trace.PatternMixed, system.Base, 8 * clock.Nanosecond, 64, true},
		{trace.PatternStream, system.PIMMMU, clock.Nanosecond, 64, true},
		{trace.PatternZipf, system.Base, 200, 64, true},
		{trace.PatternMixed, system.PIMMMU, clock.Nanosecond, 256, false},
		{trace.PatternZipf, system.Base, 200, 256, false},
	} {
		name := fmt.Sprintf("%s/%v/gap=%dps/inflight=%d/cacheable=%v",
			c.pattern, c.design, c.gap, c.inflight, c.cacheable)
		gen := func(s *system.System) []trace.Record {
			g := trace.DefaultGenConfig()
			g.Records = n
			g.Gap = c.gap
			g.Base = s.Alloc(g.FootprintBytes(c.pattern))
			return trace.MustGenerate(c.pattern, g)
		}

		rs := system.MustNew(system.DefaultConfig(c.design))
		rcfg := trace.DriverConfig{Process: trace.ProcessReplay, MaxInFlight: c.inflight, Cacheable: c.cacheable}
		r, err := rs.RunLoad(gen(rs), rcfg)
		if err != nil {
			t.Fatal(err)
		}

		ds := system.MustNew(system.DefaultConfig(c.design))
		dcfg := trace.DefaultDriverConfig()
		dcfg.Process = trace.ProcessFixed
		dcfg.MeanGap = c.gap
		dcfg.Duration = c.gap * n
		dcfg.MaxInFlight = c.inflight
		dcfg.Cacheable = c.cacheable
		l, err := ds.RunLoad(gen(ds), dcfg)
		if err != nil {
			t.Fatal(err)
		}

		if r != l {
			t.Errorf("%s: replay and drive results differ\nreplay issued=%d completed=%d bytes=%d/%d retries=%d slip=%v end=%v"+
				"\ndrive  issued=%d completed=%d bytes=%d/%d retries=%d slip=%v end=%v", name,
				r.Issued, r.Completed, r.BytesRead, r.BytesWritten, r.Retries, r.Slip, r.End,
				l.Issued, l.Completed, l.BytesRead, l.BytesWritten, l.Retries, l.Slip, l.End)
		}
		if rs.Eng.Fired() != ds.Eng.Fired() || rs.Eng.Now() != ds.Eng.Now() {
			t.Errorf("%s: replay fired %d events ending at %v, drive %d at %v",
				name, rs.Eng.Fired(), rs.Eng.Now(), ds.Eng.Fired(), ds.Eng.Now())
		}
		t.Logf("%s: issued=%d retries=%d slip=%v end=%v", name, r.Issued, r.Retries, r.Slip, r.End)
		retried = retried || r.Retries > 0
	}
	if !retried {
		t.Error("no case exercised backpressure retries")
	}
}
