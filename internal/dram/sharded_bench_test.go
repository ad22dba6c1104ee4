package dram

import (
	"fmt"
	"testing"

	"repro/internal/addrmap"
	"repro/internal/mem"
	"repro/internal/sim"
)

// benchStream drives a posted-write streaming workload across every
// channel of a device set: a host-side refiller tops the write queues up
// at a fixed cadence and the controllers drain them flat out. Posted
// writes carry no completion callback, so nearly every event is
// channel-local. shards < 1 selects the plain engine, anything else the
// sharded one.
func benchStream(b *testing.B, channels, shards int, linesPerChannel int) {
	cfg := DefaultConfig()
	cfg.Geometry.Channels = channels
	// Deep queues and a coarse refill cadence keep the host-side
	// fraction small, so the measurement is dominated by the per-channel
	// controller work.
	cfg.QueueDepth = 512
	period := cfg.Timing.Domain().Duration(1)
	for i := 0; i < b.N; i++ {
		var eng *sim.Engine
		if shards >= 1 {
			eng = sim.NewSharded()
		} else {
			eng = sim.New()
		}
		ds := mustNew(eng, cfg, "bench")
		sent := make([]int, channels)
		cols := cfg.Geometry.Cols
		// Requests recycle through a per-channel ring comfortably larger
		// than the maximum outstanding count (queue depth + completions
		// in flight), so steady state allocates nothing.
		rings := make([][]mem.Req, channels)
		for ch := range rings {
			rings[ch] = make([]mem.Req, 2*cfg.QueueDepth)
		}
		var refill func()
		refill = func() {
			live := false
			for ch := 0; ch < channels; ch++ {
				c := ds.Channel(ch)
				for sent[ch] < linesPerChannel {
					n := sent[ch]
					req := &rings[ch][n%len(rings[ch])]
					req.Addr = uint64(n) * mem.LineBytes
					req.Kind = mem.Write
					loc := addrmap.Loc{
						Channel: ch,
						Rank:    n % cfg.Geometry.Ranks,
						Row:     n / cols % cfg.Geometry.Rows,
						Col:     n % cols,
					}
					if !c.TryEnqueue(req, loc) {
						break
					}
					sent[ch]++
				}
				if sent[ch] < linesPerChannel {
					live = true
				}
			}
			if live {
				eng.After(1024*period, refill)
			}
		}
		refill()
		eng.Run()
		var wrote uint64
		for _, c := range ds.channels {
			wrote += c.stats.Writes
		}
		if want := uint64(channels * linesPerChannel); wrote != want {
			b.Fatalf("wrote %d lines, want %d", wrote, want)
		}
	}
	bytes := int64(channels * linesPerChannel * mem.LineBytes)
	b.SetBytes(bytes)
}

// BenchmarkEngineShardedChannels compares the plain engine against the
// sharded one on an 8-channel posted-write stream.
func BenchmarkEngineShardedChannels(b *testing.B) {
	const channels, lines = 8, 1 << 13
	for _, cfg := range []struct {
		name   string
		shards int
	}{
		{"serial", 0},
		{"shards1", 1},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			benchStream(b, channels, cfg.shards, lines)
		})
	}
}

// TestBenchStreamDeterministic pins that the benchmark workload itself is
// engine-class invariant (command counts and final stats per channel), so
// the comparison is apples to apples.
func TestBenchStreamDeterministic(t *testing.T) {
	run := func(shards int) []string {
		cfg := DefaultConfig()
		cfg.Geometry.Channels = 4
		var eng *sim.Engine
		if shards >= 1 {
			eng = sim.NewSharded()
		} else {
			eng = sim.New()
		}
		ds := mustNew(eng, cfg, "bench")
		const lines = 2048
		sent := make([]int, 4)
		period := cfg.Timing.Domain().Duration(1)
		var refill func()
		refill = func() {
			live := false
			for ch := 0; ch < 4; ch++ {
				c := ds.Channel(ch)
				for sent[ch] < lines {
					n := sent[ch]
					req := &mem.Req{Addr: uint64(n) * mem.LineBytes, Kind: mem.Write}
					loc := addrmap.Loc{
						Channel: ch,
						Rank:    n % cfg.Geometry.Ranks,
						Row:     n / cfg.Geometry.Cols % cfg.Geometry.Rows,
						Col:     n % cfg.Geometry.Cols,
					}
					if !c.TryEnqueue(req, loc) {
						break
					}
					sent[ch]++
				}
				if sent[ch] < lines {
					live = true
				}
			}
			if live {
				eng.After(128*period, refill)
			}
		}
		refill()
		eng.Run()
		var out []string
		for i, c := range ds.channels {
			s := c.stats
			out = append(out, fmt.Sprintf("ch%d w=%d acts=%d pres=%d refs=%d hits=%d conf=%d bytes=%d end=%v",
				i, s.Writes, s.Acts, s.Pres, s.Refs, s.RowHits, s.RowConflicts, s.BytesWritten, eng.Now()))
		}
		return out
	}
	want := run(0)
	got := run(1)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sharded: %s != %s", got[i], want[i])
		}
	}
}
