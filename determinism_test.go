// Determinism regression tests: the simulation contract is that the same
// configuration produces bit-identical results on every run, and that a
// parallel sweep over independent machines produces byte-identical output
// to the same sweep run serially. The allocation-free scheduler and the
// sweep layer must both preserve this.
package pimmmu_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/harness"
	"repro/internal/sweep"
	"repro/internal/system"
)

// fingerprint renders everything observable about one finished run: the
// transfer result, the event count, and every channel counter.
func fingerprint(s *system.System, r system.XferResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "design=%v dir=%v bytes=%d dur=%d fired=%d now=%d\n",
		r.Design, r.Dir, r.Bytes, r.Duration, s.Eng.Fired(), s.Eng.Now())
	machineFingerprint(&b, s)
	return b.String()
}

// machineFingerprint dumps every channel counter and the LLC counters,
// the per-machine half shared by the transfer and replay fingerprints.
func machineFingerprint(b *strings.Builder, s *system.System) {
	dump := func(name string, st dram.Stats) {
		for i, c := range st.Channels {
			fmt.Fprintf(b, "%s[%d] rd=%d wr=%d act=%d pre=%d ref=%d hit=%d miss=%d conf=%d br=%d bw=%d qf=%d\n",
				name, i, c.Reads, c.Writes, c.Acts, c.Pres, c.Refs,
				c.RowHits, c.RowMisses, c.RowConflicts,
				c.BytesRead, c.BytesWritten, c.QueueFull)
		}
	}
	dump("dram", s.Mem.DRAM.Stats())
	dump("pim", s.Mem.PIM.Stats())
	ls := s.Mem.LLC.Stats()
	fmt.Fprintf(b, "llc hits=%d misses=%d\n", ls.Hits, ls.Misses)
}

// runOnce builds a fresh machine and runs one transfer.
func runOnce(d system.Design, dir core.Direction, totalBytes uint64) string {
	s := system.MustNew(system.DefaultConfig(d))
	r := s.MeasureTransfer(dir, totalBytes).Res
	return fingerprint(s, r)
}

// TestRerunBitIdentical checks that two runs of the same configuration
// agree on every counter, for every design point and direction.
func TestRerunBitIdentical(t *testing.T) {
	for _, d := range system.Designs() {
		for _, dir := range []core.Direction{core.DRAMToPIM, core.PIMToDRAM} {
			a := runOnce(d, dir, 1<<20)
			b := runOnce(d, dir, 1<<20)
			if a != b {
				t.Errorf("%v %v: reruns differ\n--- first ---\n%s--- second ---\n%s", d, dir, a, b)
			}
		}
	}
}

// TestParallelSweepMatchesSerial checks the sweep layer's core promise:
// fanning independent machines across goroutines changes nothing about
// any machine's results.
func TestParallelSweepMatchesSerial(t *testing.T) {
	designs := system.Designs()
	dirs := []core.Direction{core.DRAMToPIM, core.PIMToDRAM}
	sizes := []uint64{256 << 10, 1 << 20}
	var jobs []func() string
	for _, d := range designs {
		for _, dir := range dirs {
			for _, size := range sizes {
				jobs = append(jobs, func() string { return runOnce(d, dir, size) })
			}
		}
	}
	job := func(i int) string { return jobs[i]() }
	serial := sweep.MapN(len(jobs), 1, job)
	parallel := sweep.MapN(len(jobs), 8, job)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("job %d: parallel result differs from serial\n--- serial ---\n%s--- parallel ---\n%s",
				i, serial[i], parallel[i])
		}
	}
}

// TestHarnessExperimentParallelMatchesSerial renders a full harness
// experiment both ways and compares the printed tables byte for byte.
// Fig8 is the fast tier-1 representative; the slow suite
// (determinism_slow_test.go, `make test-slow`) extends the same check
// to every experiment.
func TestHarnessExperimentParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed experiment")
	}
	fig8, ok := harness.ByName("fig8")
	if !ok {
		t.Fatal("fig8 experiment not registered")
	}
	render := func(workers int) []byte {
		r := &harness.Runner{Workers: workers}
		var buf bytes.Buffer
		fig8.Render(&buf, harness.Quick, fig8.Compute(r, harness.Quick))
		return buf.Bytes()
	}
	serial := render(1)
	parallel := render(8)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("Fig8 output differs between serial and parallel sweeps\n--- serial ---\n%s--- parallel ---\n%s",
			serial, parallel)
	}
}
