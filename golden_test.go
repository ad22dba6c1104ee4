// Golden-trace regression tests: the DDR4 command stream a design
// issues for a fixed small transfer is part of the simulator's
// contract. Each golden file pins the per-channel command counts, the
// protocol-check verdict, and the head of PIM channel 0's stream
// (cmd/pimmu-trace's view); any timing-model or scheduler change that
// moves a single command shows up as a diff. Regenerate deliberately
// with:
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

	"repro/internal/contend"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/sweep"
	"repro/internal/system"
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
// every PIM channel observed and renders the pimmu-trace-equivalent
// view of it. shards selects the event-engine class (0 plain, else
// sharded); the rendering must not depend on it.
func commandStream(d system.Design, shards int) string {
	cfg := system.DefaultConfig(d)
	cfg.Shards = shards
	s := system.MustNew(cfg)
	chans := cfg.Mem.PIM.Geometry.Channels
	recs := make([]*cmdRecorder, chans)
	for i := range recs {
		recs[i] = &cmdRecorder{counts: map[dram.Cmd]int{}}
		s.Mem.PIM.Channel(i).Observe(recs[i])
	}
	chk := dram.NewChecker(cfg.Mem.PIM)
	s.Mem.PIM.Channel(0).Observe(observerPair{recs[0], chk})

	per := (128 << 10) / uint64(s.Cfg.PIM.NumCores()) &^ 63
	if per < 64 {
		per = 64
	}
	res := s.RunTransfer(s.TransferOp(core.DRAMToPIM, s.Cfg.PIM.NumCores(), per))

	var b strings.Builder
	fmt.Fprintf(&b, "design %v DRAM->PIM %d bytes %d ps\n", d, res.Bytes, res.Duration)
	for i, r := range recs {
		fmt.Fprintf(&b, "pim[%d] n=%d ACT=%d PRE=%d RD=%d WR=%d REF=%d\n",
			i, len(r.events),
			r.counts[dram.CmdACT], r.counts[dram.CmdPRE],
			r.counts[dram.CmdRD], r.counts[dram.CmdWR], r.counts[dram.CmdREF])
	}
	fmt.Fprintf(&b, "protocol violations=%d\n", len(chk.Violations()))
	head := goldenHead
	if head > len(recs[0].events) {
		head = len(recs[0].events)
	}
	fmt.Fprintf(&b, "-- pim[0] head (%d) --\n", head)
	for _, e := range recs[0].events[:head] {
		fmt.Fprintf(&b, "%s\n", e)
	}
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

	chans := cfg.Mem.PIM.Geometry.Channels
	pimRecs := make([]*cmdRecorder, chans)
	for i := range pimRecs {
		pimRecs[i] = &cmdRecorder{counts: map[dram.Cmd]int{}}
		s.Mem.PIM.Channel(i).Observe(pimRecs[i])
	}
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

	per := (128 << 10) / uint64(s.Cfg.PIM.NumCores()) &^ 63
	if per < 64 {
		per = 64
	}
	res := s.RunTransfer(s.TransferOp(core.DRAMToPIM, s.Cfg.PIM.NumCores(), per))
	st.Stop()

	var b strings.Builder
	fmt.Fprintf(&b, "design %v contended DRAM->PIM %d bytes %d ps (%d spin + %d hog)\n",
		system.Base, res.Bytes, res.Duration, nSpin, nHog)
	for i, r := range pimRecs {
		fmt.Fprintf(&b, "pim[%d] n=%d ACT=%d PRE=%d RD=%d WR=%d REF=%d\n",
			i, len(r.events),
			r.counts[dram.CmdACT], r.counts[dram.CmdPRE],
			r.counts[dram.CmdRD], r.counts[dram.CmdWR], r.counts[dram.CmdREF])
	}
	fmt.Fprintf(&b, "dram[0] n=%d ACT=%d PRE=%d RD=%d WR=%d REF=%d\n",
		len(dramRec.events),
		dramRec.counts[dram.CmdACT], dramRec.counts[dram.CmdPRE],
		dramRec.counts[dram.CmdRD], dramRec.counts[dram.CmdWR], dramRec.counts[dram.CmdREF])
	fmt.Fprintf(&b, "protocol violations=%d\n", len(chk.Violations()))
	head := goldenHead
	if head > len(dramRec.events) {
		head = len(dramRec.events)
	}
	fmt.Fprintf(&b, "-- dram[0] head (%d) --\n", head)
	for _, e := range dramRec.events[:head] {
		fmt.Fprintf(&b, "%s\n", e)
	}
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
	path := filepath.Join("testdata", "cmdstream_contended.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(serial[0]), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run Golden -update .` to create)", err)
	}
	if string(want) != serial[0] {
		t.Errorf("contended command stream diverged from %s\n--- got ---\n%s--- want ---\n%s",
			path, serial[0], want)
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
	return filepath.Join("testdata", "cmdstream_"+name+".golden")
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
		path := goldenName(d)
		if *updateGolden {
			if err := os.WriteFile(path, []byte(serial[i]), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s", path)
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v: %v (run `go test -run Golden -update .` to create)", d, err)
		}
		if string(want) != serial[i] {
			t.Errorf("%v: command stream diverged from %s\n--- got ---\n%s--- want ---\n%s",
				d, path, serial[i], want)
		}
	}
}
