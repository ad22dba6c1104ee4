package memsys

import (
	"fmt"
	"testing"

	"repro/internal/clock"
	"repro/internal/mem"
	"repro/internal/sim"
)

// shardedSystem builds the memory system on a sharded engine: one lane
// per channel of each device set, claimed by the channels themselves.
func shardedSystem(t *testing.T) (*sim.Engine, *System) {
	t.Helper()
	eng := sim.NewSharded()
	return eng, mustNew(eng, smallConfig(MapLocalityBoth))
}

// laneStat finds one lane's snapshot by name.
func laneStat(t *testing.T, eng *sim.Engine, name string) sim.LaneStats {
	t.Helper()
	for _, l := range eng.ShardStats().Lanes {
		if l.Name == name {
			return l
		}
	}
	t.Fatalf("lane %q not in ShardStats", name)
	return sim.LaneStats{}
}

// TestCrossingClassification is the table test of the package's sharding
// contract: every request path through the memory system must classify
// lane-local vs crossing exactly as documented. The observable is the
// owning channel lane's crossing count — a completion that calls back
// into the requester fires as a crossing, a purely local path never
// does — plus whether the completion callback fires.
func TestCrossingClassification(t *testing.T) {
	cases := []struct {
		name string
		req  func(s *System) *mem.Req
		// lane whose classification the case pins, and whether the path
		// must produce a crossing there.
		lane      string
		crossing  bool
		wantsDone bool
	}{
		{
			// A cacheable read miss fills from DRAM and must deliver its
			// completion back to the requester: the data burst is a
			// crossing on the channel's lane.
			name: "read miss with callback crosses",
			req: func(s *System) *mem.Req {
				return &mem.Req{Addr: 0, Kind: mem.Read, Cacheable: true}
			},
			lane: "dram:0", crossing: true, wantsDone: true,
		},
		{
			// A posted non-cacheable DRAM write has no callback and no
			// waiter: everything the channel does stays lane-local.
			name: "posted NC write stays local",
			req: func(s *System) *mem.Req {
				return &mem.Req{Addr: 0, Kind: mem.Write, Cacheable: false}
			},
			lane: "dram:0", crossing: false,
		},
		{
			// A PIM-region request bypasses the LLC but its completion
			// still crosses back to the requester on the PIM channel lane.
			name: "pim write with callback crosses",
			req: func(s *System) *mem.Req {
				return &mem.Req{Addr: mem.PIMBase, Kind: mem.Write}
			},
			lane: "pim:0", crossing: true, wantsDone: true,
		},
		{
			// A posted PIM write is lane-local end to end.
			name: "posted pim write stays local",
			req: func(s *System) *mem.Req {
				return &mem.Req{Addr: mem.PIMBase, Kind: mem.Write}
			},
			lane: "pim:0", crossing: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, s := shardedSystem(t)
			r := tc.req(s)
			done := false
			if tc.wantsDone {
				r.OnDone = func(clock.Picos) { done = true }
			}
			if !s.TryEnqueue(r) {
				t.Fatal("request rejected by empty system")
			}
			eng.Run()
			ls := laneStat(t, eng, tc.lane)
			if tc.crossing && ls.Crossings == 0 {
				t.Errorf("%s: expected a crossing on %s, none fired (stats %+v)",
					tc.name, tc.lane, ls)
			}
			if !tc.crossing && ls.Crossings != 0 {
				t.Errorf("%s: expected a lane-local path on %s, %d crossings fired",
					tc.name, tc.lane, ls.Crossings)
			}
			if tc.wantsDone && !done {
				t.Errorf("%s: completion callback never fired", tc.name)
			}
		})
	}
}

// TestLLCHitDeliversFromHostLane pins the LLC-hit path: a hit never
// touches a channel lane — its deferred completion is a host event.
func TestLLCHitDeliversFromHostLane(t *testing.T) {
	eng, s := shardedSystem(t)
	// Prime the line (miss, fills from DRAM).
	s.TryEnqueue(&mem.Req{Addr: 0x2000, Kind: mem.Read, Cacheable: true})
	eng.Run()
	before := eng.ShardStats()
	done := false
	s.TryEnqueue(&mem.Req{Addr: 0x2000, Kind: mem.Read, Cacheable: true,
		OnDone: func(clock.Picos) { done = true }})
	if got := eng.ShardStats().HostPending; got != before.HostPending+1 {
		t.Errorf("LLC hit scheduled %d host events, want 1 (the deferred hit delivery)",
			got-before.HostPending)
	}
	for _, l := range eng.ShardStats().Lanes {
		bl := laneStat(t, eng, l.Name)
		if bl.Pending != 0 {
			t.Errorf("LLC hit left %d pending events on lane %s; hits must not touch channels",
				bl.Pending, l.Name)
		}
	}
	eng.Run()
	if !done {
		t.Fatal("LLC hit completion never fired")
	}
	if st := s.LLC.Stats(); st.Hits != 1 {
		t.Errorf("LLC hits = %d, want 1", st.Hits)
	}
}

// TestWritebackStaysPostedAndLocal forces a dirty eviction and checks the
// writeback path: the evicted line's write is posted (no callback), so
// the receiving channel's work stays lane-local — only the triggering
// fill (which carries the requester's callback) crosses.
func TestWritebackStaysPostedAndLocal(t *testing.T) {
	eng, s := shardedSystem(t)
	ways := s.cfg.LLC.Ways
	setStride := uint64(s.cfg.LLC.SizeBytes / ways) // same-set stride
	// Dirty one line, then evict it by filling the set with reads.
	s.TryEnqueue(&mem.Req{Addr: 0, Kind: mem.Write, Cacheable: true})
	eng.Run()
	crossings := func() (total uint64) {
		for _, l := range eng.ShardStats().Lanes {
			total += l.Crossings
		}
		return
	}
	base := crossings()
	done := 0
	for i := 1; i <= ways; i++ {
		s.TryEnqueue(&mem.Req{Addr: uint64(i) * setStride, Kind: mem.Read, Cacheable: true,
			OnDone: func(clock.Picos) { done++ }})
		eng.Run()
	}
	if done != ways {
		t.Fatalf("completed %d of %d set-filling reads", done, ways)
	}
	wrote := s.DRAM.Stats().BytesWritten()
	if wrote != mem.LineBytes {
		t.Fatalf("writeback traffic = %d bytes, want exactly one line", wrote)
	}
	// Every crossing after the priming write must be one of the `ways`
	// fills; the posted writeback adds none.
	if got, want := crossings()-base, uint64(ways); got > want {
		t.Errorf("crossings after eviction = %d, want <= %d (writeback must stay local)",
			got, want)
	}
}

// TestTapObservesEveryLaneSerially pins the trace-tap contract on a
// sharded machine: the tap sees every accepted request exactly once,
// identically to a plain-engine run.
func TestTapObservesEveryLaneSerially(t *testing.T) {
	run := func(eng *sim.Engine) []string {
		s := mustNew(eng, smallConfig(MapLocalityBoth))
		var seen []string
		s.SetTap(func(now clock.Picos, r *mem.Req) {
			seen = append(seen, fmt.Sprintf("%d:%x:%v", now, r.Addr, r.Kind))
		})
		for i := 0; i < 64; i++ {
			addr := uint64(i) * 64
			if i%2 == 1 {
				addr = mem.PIMBase + addr
			}
			req := &mem.Req{Addr: addr, Kind: mem.Read, Cacheable: addr < mem.PIMBase}
			if i%4 == 3 {
				req.Kind = mem.Write
			}
			if !s.TryEnqueue(req) {
				t.Fatalf("request %d rejected", i)
			}
		}
		eng.Run()
		return seen
	}
	plain := run(sim.New())
	if len(plain) != 64 {
		t.Fatalf("tap saw %d requests, want 64", len(plain))
	}
	sharded := run(sim.NewSharded())
	for i := range plain {
		if plain[i] != sharded[i] {
			t.Fatalf("tap diverged at %d: %s vs %s", i, plain[i], sharded[i])
		}
	}
}
