// Golden-trace regression tests: the DDR4 command stream a design
// issues for a fixed small transfer is part of the simulator's
// contract. Each golden file pins the per-channel command counts, the
// protocol-check verdict, and the head of PIM channel 0's stream
// (`pimmu cmds`'s view); any timing-model or scheduler change that
// moves a single command shows up as a diff. One more golden pins
// open-loop results rather than commands (see loadCanary). Regenerate
// deliberately with:
//
//	go test -run Golden -update .
package pimmmu_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/contend"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/sweep"
	"repro/internal/system"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// cmdRecorder captures one channel's command stream.
type cmdRecorder struct {
	events []dram.CmdEvent
	counts map[dram.Cmd]int
}

func (r *cmdRecorder) Command(_ int, e dram.CmdEvent) {
	r.events = append(r.events, e)
	r.counts[e.Cmd]++
}

// goldenHead is how many channel-0 commands each golden file pins.
const goldenHead = 48

// commandStream runs a 128 KiB DRAM->PIM transfer on the design with
// every PIM channel observed and renders the `pimmu cmds`-equivalent
// view of it. shards selects the event-engine class (0 plain, else
// sharded); the rendering must not depend on it.
func commandStream(d system.Design, shards int) string {
	cfg := system.DefaultConfig(d)
	cfg.Shards = shards
	s := system.MustNew(cfg)
	recs := recordChannels(s.Mem.PIM, cfg.Mem.PIM.Geometry.Channels)
	chk := dram.NewChecker(cfg.Mem.PIM)
	s.Mem.PIM.Channel(0).Observe(observerPair{recs[0], chk})

	res := s.MeasureTransfer(core.DRAMToPIM, 128<<10).Res

	var b strings.Builder
	fmt.Fprintf(&b, "design %v DRAM->PIM %d bytes %d ps\n", d, res.Bytes, res.Duration)
	renderCounts(&b, "pim", recs)
	fmt.Fprintf(&b, "protocol violations=%d\n", len(chk.Violations()))
	renderHead(&b, "pim[0]", recs[0])
	return b.String()
}

// contendedStream is the Fig. 13-style golden workload: a 128 KiB
// software-baseline DRAM->PIM transfer co-located with four spin
// contenders and two medium-intensity memory hogs, so the command
// stream pins CPU-thread scheduling, contender interference, and the
// write path together. The rendering must not depend on shards.
func contendedStream(shards int) string {
	cfg := system.DefaultConfig(system.Base)
	cfg.Shards = shards
	s := system.MustNew(cfg)

	pimRecs := recordChannels(s.Mem.PIM, cfg.Mem.PIM.Geometry.Channels)
	dramRec := &cmdRecorder{counts: map[dram.Cmd]int{}}
	chk := dram.NewChecker(cfg.Mem.DRAM)
	s.Mem.DRAM.Channel(0).Observe(observerPair{dramRec, chk})

	const (
		nSpin   = 4
		nHog    = 2
		wset    = 16 << 10
		hogFoot = 4 << 20
	)
	spinBase := s.Alloc(nSpin * wset)
	hogBase := s.Alloc(nHog * hogFoot)
	st := s.Contenders(nSpin, func(i int, st *contend.Stopper) cpu.Program {
		return contend.Spin(st, spinBase+uint64(i)*wset)
	})
	// The hogs share the spin contenders' stopper so one Stop quiesces
	// everything.
	for i := 0; i < nHog; i++ {
		base := hogBase + uint64(i)*hogFoot
		s.CPU.Spawn(fmt.Sprintf("hog-%d", i),
			contend.MemoryHog(st, base, hogFoot, contend.Medium), nil)
	}

	res := s.MeasureTransfer(core.DRAMToPIM, 128<<10).Res
	st.Stop()

	var b strings.Builder
	fmt.Fprintf(&b, "design %v contended DRAM->PIM %d bytes %d ps (%d spin + %d hog)\n",
		system.Base, res.Bytes, res.Duration, nSpin, nHog)
	renderCounts(&b, "pim", pimRecs)
	renderCounts(&b, "dram", []*cmdRecorder{dramRec})
	fmt.Fprintf(&b, "protocol violations=%d\n", len(chk.Violations()))
	renderHead(&b, "dram[0]", dramRec)
	return b.String()
}

// TestGoldenContendedStream pins the contender-heavy command stream
// against its golden file on the default (plain) engine, with the same
// worker-count stability gate as the transfer goldens;
// sharded_test.go pins the sharded rendering bit-equal to this one.
func TestGoldenContendedStream(t *testing.T) {
	serial := sweep.MapN(2, 1, func(int) string { return contendedStream(0) })
	parallel := sweep.MapN(2, 4, func(int) string { return contendedStream(0) })
	if serial[0] != serial[1] || serial[0] != parallel[0] || serial[0] != parallel[1] {
		t.Fatal("contended command stream not stable across reruns/worker counts")
	}
	checkGoldenFile(t, "cmdstream_contended.golden", serial[0])
}

// openLoopArrivals is the arrival count of the conflict-heavy golden.
const openLoopArrivals = 8192

// openLoopStream is the conflict-heavy golden workload: a Base open-loop
// run of uncached Poisson arrivals at a 2 ns mean gap over a
// uniform-random mixed read/write trace on a 16 MiB footprint, with
// enough requests in flight to fill the controller queues. Nearly every
// DRAM access is a row conflict, so the stream pins the FR-FCFS
// scheduler's precharge decisions (the row-hit guard, bank ownership
// across both queues and write-drain switches) rather than the row-hit
// path the transfer goldens exercise.
func openLoopStream() string {
	s := system.MustNew(system.DefaultConfig(system.Base))
	recs, chk := observeDRAM(s)

	gcfg := trace.DefaultGenConfig()
	gcfg.Records = openLoopArrivals
	gcfg.FootprintLines = 1 << 18
	gcfg.Base = s.Alloc(gcfg.FootprintBytes(trace.PatternMixed))
	dcfg := trace.DefaultDriverConfig()
	dcfg.MeanGap = 2 * clock.Nanosecond
	dcfg.Duration = dcfg.MeanGap * openLoopArrivals
	// Uncached, so the trace's stores reach the write queue and drive
	// write-drain switches instead of waiting in the LLC.
	dcfg.Cacheable = false
	dcfg.MaxInFlight = 256
	lr, err := s.RunLoad(trace.MustGenerate(trace.PatternMixed, gcfg), dcfg)
	if err != nil {
		panic(err)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "design %v open-loop mixed poisson gap=%dps arrivals=%d completed=%d retries=%d end=%d ps\n",
		system.Base, dcfg.MeanGap, lr.Arrivals, lr.Completed, lr.Retries, s.Eng.Now())
	renderCounts(&b, "dram", recs)
	fmt.Fprintf(&b, "protocol violations=%d\n", len(chk.Violations()))
	renderHead(&b, "dram[0]", recs[0])
	return b.String()
}

// recordChannels attaches a command recorder to each of the first n
// channels of a device set.
func recordChannels(ds *dram.DeviceSet, n int) []*cmdRecorder {
	recs := make([]*cmdRecorder, n)
	for i := range recs {
		recs[i] = &cmdRecorder{counts: map[dram.Cmd]int{}}
		ds.Channel(i).Observe(recs[i])
	}
	return recs
}

// observeDRAM attaches a command recorder to every DRAM channel and a
// protocol checker to channel 0.
func observeDRAM(s *system.System) ([]*cmdRecorder, *dram.Checker) {
	recs := recordChannels(s.Mem.DRAM, s.Cfg.Mem.DRAM.Geometry.Channels)
	chk := dram.NewChecker(s.Cfg.Mem.DRAM)
	s.Mem.DRAM.Channel(0).Observe(observerPair{recs[0], chk})
	return recs, chk
}

// renderCounts writes one line of command counts per channel.
func renderCounts(b *strings.Builder, name string, recs []*cmdRecorder) {
	for i, r := range recs {
		fmt.Fprintf(b, "%s[%d] n=%d ACT=%d PRE=%d RD=%d WR=%d REF=%d\n",
			name, i, len(r.events),
			r.counts[dram.CmdACT], r.counts[dram.CmdPRE],
			r.counts[dram.CmdRD], r.counts[dram.CmdWR], r.counts[dram.CmdREF])
	}
}

// renderHead writes the first goldenHead commands of one channel.
func renderHead(b *strings.Builder, name string, r *cmdRecorder) {
	head := min(goldenHead, len(r.events))
	fmt.Fprintf(b, "-- %s head (%d) --\n", name, head)
	for _, e := range r.events[:head] {
		fmt.Fprintf(b, "%s\n", e)
	}
}

// TestGoldenOpenLoopStream pins the conflict-heavy open-loop command
// stream against its golden file.
func TestGoldenOpenLoopStream(t *testing.T) {
	checkGoldenFile(t, "cmdstream_openloop.golden", openLoopStream())
}

// replayStream is the replay golden workload: the port traffic of a
// Base 128 KiB DRAM->PIM transfer, recorded, then replayed uncached on
// a fresh Base machine with enough requests in flight to fill the
// controller queues. The trace interleaves DRAM-region reads with
// PIM-region writes, so the stream pins replay's issue order, its
// backpressure retries and the per-line cacheability routing.
func replayStream() string {
	recs := recordTransferTrace(system.Base, 128<<10)
	s := system.MustNew(system.DefaultConfig(system.Base))
	pims := recordChannels(s.Mem.PIM, s.Cfg.Mem.PIM.Geometry.Channels)
	drams, chk := observeDRAM(s)
	cfg := trace.DriverConfig{Process: trace.ProcessReplay, MaxInFlight: 256}
	r, err := s.RunLoad(recs, cfg)
	if err != nil {
		panic(err)
	}
	sum := trace.Summarize(recs)

	var b strings.Builder
	fmt.Fprintf(&b, "design %v replay of a recorded DRAM->PIM transfer: records=%d pim-records=%d\n",
		system.Base, sum.Records, sum.PIMRecords)
	fmt.Fprintf(&b, "issued=%d completed=%d retries=%d slip=%d p99=%d end=%d ps\n",
		r.Issued, r.Completed, r.Retries, r.Slip, r.Service.P99(), s.Eng.Now())
	renderCounts(&b, "pim", pims)
	renderCounts(&b, "dram", drams)
	fmt.Fprintf(&b, "protocol violations=%d\n", len(chk.Violations()))
	renderHead(&b, "dram[0]", drams[0])
	return b.String()
}

// TestGoldenReplayStream pins the replay command stream against its
// golden file.
func TestGoldenReplayStream(t *testing.T) {
	checkGoldenFile(t, "cmdstream_replay.golden", replayStream())
}

// loadCanaryArrivals is the arrival count of the open-loop result
// golden. Smaller runs (4,096 and 16,384 arrivals) leave the results
// unchanged when same-instant DRAM ticks reorder; 65,536 arrivals do
// not.
const loadCanaryArrivals = 65536

// loadCanary is the tie-order canary: PIM-MMU open-loop runs of the
// openloop benchmark's shape (2^18-line footprint, seed 1), a mixed
// trace at a 2 ns mean gap and a zipf trace at 1 ns, with every
// latency, backpressure and memory counter rendered. The command-stream
// goldens pin only their heads, so a change that only moves which of two
// same-instant events runs first can leave them intact; these results
// move.
func loadCanary() string {
	var b strings.Builder
	for _, op := range []struct {
		p   trace.Pattern
		gap clock.Picos
	}{{trace.PatternMixed, 2 * clock.Nanosecond}, {trace.PatternZipf, clock.Nanosecond}} {
		s := system.MustNew(system.DefaultConfig(system.PIMMMU))
		gcfg := trace.DefaultGenConfig()
		gcfg.Records = loadCanaryArrivals
		gcfg.FootprintLines = 1 << 18
		gcfg.Base = s.Alloc(gcfg.FootprintBytes(op.p))
		dcfg := trace.DefaultDriverConfig()
		dcfg.MeanGap = op.gap
		dcfg.Duration = op.gap * loadCanaryArrivals
		lr, err := s.RunLoad(trace.MustGenerate(op.p, gcfg), dcfg)
		if err != nil {
			panic(err)
		}
		fmt.Fprintf(&b, "design %v open-loop %s poisson gap=%dps arrivals=%d issued=%d completed=%d end=%d ps\n",
			system.PIMMMU, op.p, op.gap, lr.Arrivals, lr.Issued, lr.Completed, s.Eng.Now())
		fmt.Fprintf(&b, "  rd=%d wr=%d dur=%d retries=%d max_queued=%d\n",
			lr.BytesRead, lr.BytesWritten, lr.Duration(), lr.Retries, lr.MaxQueued)
		for _, h := range []struct {
			name string
			sum  clock.Picos
			hist trace.LatencyHist
		}{{"queue", lr.QueueSum, lr.Queue}, {"service", lr.ServiceSum, lr.Service}, {"total", lr.TotalSum, lr.Total}} {
			fmt.Fprintf(&b, "  %s sum=%d p50=%d p99=%d p999=%d\n",
				h.name, h.sum, h.hist.P50(), h.hist.P99(), h.hist.P999())
		}
		for _, ds := range []struct {
			name string
			st   dram.Stats
		}{{"dram", s.Mem.DRAM.Stats()}, {"pim", s.Mem.PIM.Stats()}} {
			var hits uint64
			for _, c := range ds.st.Channels {
				hits += c.RowHits
			}
			fmt.Fprintf(&b, "  %s cas=%d act=%d ref=%d rowhit=%d\n",
				ds.name, ds.st.CAS(), ds.st.Acts(), ds.st.Refs(), hits)
		}
		ls := s.Mem.LLC.Stats()
		fmt.Fprintf(&b, "  llc hit=%d miss=%d wb=%d\n", ls.Hits, ls.Misses, ls.Writebacks)
	}
	return b.String()
}

// TestGoldenLoadResults pins the tie-order canary against its golden
// file.
func TestGoldenLoadResults(t *testing.T) {
	checkGoldenFile(t, "loadresult_pim-mmu.golden", loadCanary())
}

// checkGoldenFile compares got with testdata/name, or rewrites the file
// under -update.
func checkGoldenFile(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run Golden -update .` to create)", err)
	}
	if string(want) != got {
		t.Errorf("output diverged from %s\n--- got ---\n%s--- want ---\n%s",
			path, got, want)
	}
}

// observerPair fans one channel's commands to two observers.
type observerPair [2]dram.Observer

func (m observerPair) Command(ch int, e dram.CmdEvent) {
	m[0].Command(ch, e)
	m[1].Command(ch, e)
}

// goldenName maps a design to its golden file.
func goldenName(d system.Design) string {
	name := map[system.Design]string{system.Base: "base", system.PIMMMU: "pim-mmu"}[d]
	return "cmdstream_" + name + ".golden"
}

// TestGoldenCommandStream compares each design's command stream to its
// committed golden file, and requires the rendering to be bit-stable
// across reruns and across sweep worker counts.
func TestGoldenCommandStream(t *testing.T) {
	designs := []system.Design{system.Base, system.PIMMMU}
	// Stability first: render every design serially and in a parallel
	// sweep; the observers live inside each job's own machine, so worker
	// count must not matter.
	// Goldens pin the default (plain, Shards=0) engine; sharded_test.go
	// separately pins sharded renderings bit-equal to these.
	serial := sweep.MapN(len(designs), 1, func(i int) string { return commandStream(designs[i], 0) })
	parallel := sweep.MapN(len(designs), 4, func(i int) string { return commandStream(designs[i], 0) })
	for i, d := range designs {
		if serial[i] != parallel[i] {
			t.Fatalf("%v: command stream differs between worker counts", d)
		}
	}
	for i, d := range designs {
		checkGoldenFile(t, goldenName(d), serial[i])
	}
}
