// Cross-engine invariant tests: on these workloads the sharded engine
// must be indistinguishable from the plain one. The two engines are
// separate event orders that can break same-instant ties differently
// (fig8, fig14 and the Fig. 13 contended transfers differ), so these
// tests pin the workloads where they agree: the per-channel DDR4 command
// streams of transfers, replay and open-loop results, and a contended
// golden stream.
package pimmmu_test

import (
	"reflect"
	"testing"

	"repro/internal/clock"
	"repro/internal/mem"
	"repro/internal/system"
	"repro/internal/trace"
)

// laneTopos is the engine-class axis every invariant is checked across,
// as Config.Shards values: the plain engine (the reference) and the
// sharded one.
var laneTopos = []int{0, 1}

// TestShardedCommandStreamIdentical pins the full per-channel DDR4
// command stream of a transfer (the golden-test rendering) byte-identical
// between the plain and the sharded engine, for both the
// software-baseline (CPU-thread-heavy) and the PIM-MMU design.
func TestShardedCommandStreamIdentical(t *testing.T) {
	for _, d := range []system.Design{system.Base, system.PIMMMU} {
		want := commandStream(d, laneTopos[0])
		for _, lt := range laneTopos[1:] {
			if got := commandStream(d, lt); got != want {
				t.Errorf("%v: command stream diverged at shards=%d\n--- plain ---\n%s--- %d ---\n%s",
					d, lt, want, lt, got)
			}
		}
	}
}

// TestContendedStreamLaneTopologyIdentical is the Fig. 13-style
// counterpart: the contender-heavy golden command stream (spin +
// memory-hog threads co-located with a software transfer) must render
// byte-identically on both engines.
func TestContendedStreamLaneTopologyIdentical(t *testing.T) {
	want := contendedStream(laneTopos[0])
	for _, lt := range laneTopos[1:] {
		if got := contendedStream(lt); got != want {
			t.Errorf("contended stream diverged at shards=%d\n--- plain ---\n%s--- %d ---\n%s",
				lt, want, lt, got)
		}
	}
}

// TestShardedReplayResultIdentical replays one synthetic trace on both
// engines and requires the full trace.LoadResult — counts,
// bytes, timestamps, latency sum and histogram, backpressure metrics — to
// match field for field.
func TestShardedReplayResultIdentical(t *testing.T) {
	gen := trace.DefaultGenConfig()
	gen.Records = 1 << 11
	gen.FootprintLines = 1 << 14
	results := make([]trace.LoadResult, len(laneTopos))
	for i, lt := range laneTopos {
		cfg := system.DefaultConfig(system.PIMMMU)
		cfg.Shards = lt
		s := system.MustNew(cfg)
		g := gen
		g.Base = s.Alloc(g.FootprintBytes(trace.PatternMixed))
		recs := trace.MustGenerate(trace.PatternMixed, g)
		r, err := s.RunLoad(recs, replayCfg)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = r
	}
	for i, lt := range laneTopos[1:] {
		if !reflect.DeepEqual(results[i+1], results[0]) {
			t.Errorf("trace.LoadResult diverged at shards=%d:\nplain: %+v\nsharded: %+v",
				lt, results[0], results[i+1])
		}
	}
}

// TestShardedLoadResultIdentical drives one open-loop Poisson point on
// both engines and requires the full trace.LoadResult
// — arrival/issue/completion counts, the queue/service/total latency
// split with all three histograms, and the backpressure metrics — to
// match field for field.
func TestShardedLoadResultIdentical(t *testing.T) {
	gen := trace.DefaultGenConfig()
	gen.Records = 1 << 11
	gen.FootprintLines = 1 << 14
	dcfg := trace.DefaultDriverConfig()
	dcfg.MeanGap = 4 * clock.Nanosecond
	dcfg.Duration = 8 * clock.Microsecond
	results := make([]trace.LoadResult, len(laneTopos))
	for i, lt := range laneTopos {
		cfg := system.DefaultConfig(system.PIMMMU)
		cfg.Shards = lt
		s := system.MustNew(cfg)
		g := gen
		g.Base = s.Alloc(g.FootprintBytes(trace.PatternMixed))
		recs := trace.MustGenerate(trace.PatternMixed, g)
		r, err := s.RunLoad(recs, dcfg)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = r
	}
	for i, lt := range laneTopos[1:] {
		if !reflect.DeepEqual(results[i+1], results[0]) {
			t.Errorf("trace.LoadResult diverged at shards=%d:\nplain: %+v\nsharded: %+v",
				lt, results[0], results[i+1])
		}
	}
}

// TestShardedTransferMetricsIdentical runs a mid-size DCE transfer on
// both engines and compares the transfer result plus the aggregate
// channel statistics on both device sets.
func TestShardedTransferMetricsIdentical(t *testing.T) {
	type snapshot struct {
		res                  system.XferResult
		dramRead, dramWrite  uint64
		pimRead, pimWrite    uint64
		dramCAS, pimCAS      uint64
		dramActs, pimActs    uint64
		fired                uint64
		hitQFullRetries      uint64
		pimChannelRowHits    []uint64
		pimChannelQueueFulls []uint64
	}
	run := func(shards int) snapshot {
		cfg := system.DefaultConfig(system.PIMMMU)
		cfg.Shards = shards
		s := system.MustNew(cfg)
		res := s.MeasureTransfer(0, 1<<20).Res
		ds, ps := s.Mem.DRAM.Stats(), s.Mem.PIM.Stats()
		snap := snapshot{
			res:      res,
			dramRead: ds.BytesRead(), dramWrite: ds.BytesWritten(),
			pimRead: ps.BytesRead(), pimWrite: ps.BytesWritten(),
			dramCAS: ds.CAS(), pimCAS: ps.CAS(),
			dramActs: ds.Acts(), pimActs: ps.Acts(),
			fired: s.Eng.Fired(),
		}
		for _, c := range ps.Channels {
			snap.hitQFullRetries += c.QueueFull
			snap.pimChannelRowHits = append(snap.pimChannelRowHits, c.RowHits)
			snap.pimChannelQueueFulls = append(snap.pimChannelQueueFulls, c.QueueFull)
		}
		return snap
	}
	want := run(laneTopos[0])
	for _, lt := range laneTopos[1:] {
		if got := run(lt); !reflect.DeepEqual(got, want) {
			t.Errorf("transfer metrics diverged at shards=%d:\nplain:   %+v\nsharded: %+v",
				lt, want, got)
		}
	}
}

// TestShardedPIMRegionReplay exercises the non-cacheable PIM-region path
// (no LLC in front of the channels) on both engines.
func TestShardedPIMRegionReplay(t *testing.T) {
	gen := trace.DefaultGenConfig()
	gen.Records = 1 << 10
	gen.FootprintLines = 1 << 12
	gen.Base = mem.PIMBase
	gen.WritePercent = 100
	recs := trace.MustGenerate(trace.PatternMixed, gen)
	var want trace.LoadResult
	for i, shards := range laneTopos {
		cfg := system.DefaultConfig(system.Base)
		cfg.Shards = shards
		s := system.MustNew(cfg)
		r, err := s.RunLoad(recs, replayCfg)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = r
		} else if !reflect.DeepEqual(r, want) {
			t.Errorf("PIM-region replay diverged at shards=%d:\nplain: %+v\nsharded: %+v",
				shards, want, r)
		}
	}
}
