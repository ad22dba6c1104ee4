// Pure experiment axes: the scale-dependent sizes, workload definitions
// and arrival processes that plans enumerate over. Everything here is a
// pure function of the Scale — no simulation, no internal/system.

package harness

import (
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/trace"
)

// bothDirections is the transfer-direction axis shared by several sweeps.
var bothDirections = []core.Direction{core.DRAMToPIM, core.PIMToDRAM}

// fig4Size is the fig4 transfer size.
func fig4Size(sc Scale) uint64 {
	if sc == Full {
		return 256 << 20
	}
	return 16 << 20
}

// fig6Size is the fig6 transfer size.
func fig6Size(sc Scale) uint64 {
	if sc == Full {
		return 64 << 20
	}
	return 16 << 20
}

// fig8Lines is the fig8 per-thread line count.
func fig8Lines(sc Scale) uint64 {
	if sc == Full {
		return 1 << 17
	}
	return 1 << 15
}

// fig8Patterns is the fig8 access-pattern axis.
var fig8Patterns = []struct {
	name   string
	stride int
}{{"sequential", 1}, {"strided (x4)", 4}}

// fig13Size is the contended transfer size of both fig13 sweeps.
func fig13Size(sc Scale) uint64 {
	if sc == Full {
		return 32 << 20
	}
	return 4 << 20
}

// fig13aCounts is the compute-contender axis.
var fig13aCounts = []int{0, 8, 16, 24}

// fig14Size is the fig14 memcpy size.
func fig14Size(sc Scale) uint64 {
	if sc == Full {
		return 64 << 20
	}
	return 8 << 20
}

// fig14Configs is the fig14 memory-geometry axis ("xC-yR": x channels,
// y total ranks).
var fig14Configs = []struct {
	name   string
	ch, ra int
}{
	{"2C-4R", 2, 2},
	{"4C-8R", 4, 2},
	{"4C-16R", 4, 4},
}

// fig15Sizes is the transfer-size axis of the ablation and of headline.
func fig15Sizes(sc Scale) []uint64 {
	if sc == Full {
		return []uint64{1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20}
	}
	return []uint64{1 << 20, 4 << 20, 16 << 20}
}

// fig15Transfers is the (direction x size) axis of the ablation and
// of headline.
func fig15Transfers(sc Scale) []transfer {
	var ts []transfer
	for _, dir := range bothDirections {
		for _, size := range fig15Sizes(sc) {
			ts = append(ts, transfer{dir, size})
		}
	}
	return ts
}

// fig16Scale is the PrIM suite's size multiplier.
func fig16Scale(sc Scale) float64 {
	if sc == Full {
		return 1.0
	}
	return 1.0 / 64
}

// replayWorkload names one synthetic trace workload of the replay
// experiment.
type replayWorkload struct {
	name    string
	pattern trace.Pattern
	// pim targets the PIM region (non-cacheable) instead of DRAM.
	pim bool
	// tweak adjusts the scaled default generator config.
	tweak func(*trace.GenConfig)
}

// replayWorkloads is the workload axis of the replay experiment: the
// five synthetic application patterns over the DRAM region plus a
// random-write stream into the PIM region.
func replayWorkloads() []replayWorkload {
	return []replayWorkload{
		{name: "stream", pattern: trace.PatternStream},
		{name: "strided x4", pattern: trace.PatternStrided},
		{name: "ptr-chase", pattern: trace.PatternChase},
		{name: "mixed 70r/30w", pattern: trace.PatternMixed},
		{name: "zipf hot-set", pattern: trace.PatternZipf},
		{name: "pim wr-rand", pattern: trace.PatternMixed, pim: true,
			tweak: func(c *trace.GenConfig) { c.WritePercent = 100 }},
	}
}

// replayGenConfig sizes one workload's generator for the scale.
func replayGenConfig(sc Scale) trace.GenConfig {
	cfg := trace.DefaultGenConfig()
	cfg.FootprintLines = 1 << 18 // 16 MiB: past the LLC, so DRAM decides
	if sc == Full {
		cfg.Records = 1 << 17
		cfg.FootprintLines = 1 << 20
	}
	return cfg
}

// replayWorkloadGenConfig is one workload's fully tweaked generator
// config (its Base address is assigned inside the compute job; see
// replaySweep).
func replayWorkloadGenConfig(sc Scale, wl replayWorkload) trace.GenConfig {
	cfg := replayGenConfig(sc)
	if wl.tweak != nil {
		wl.tweak(&cfg)
	}
	return cfg
}

// loadGaps is the offered-load axis of the loadcurve experiment as mean
// inter-arrival gaps: one 64 B line per gap, so offered load spans 2 to
// 64 GB/s. Full mode adds intermediate points to sharpen the knee.
func loadGaps(sc Scale) []clock.Picos {
	if sc == Full {
		return []clock.Picos{
			32 * clock.Nanosecond, 24 * clock.Nanosecond, 16 * clock.Nanosecond,
			12 * clock.Nanosecond, 8 * clock.Nanosecond, 6 * clock.Nanosecond,
			4 * clock.Nanosecond, 3 * clock.Nanosecond, 2 * clock.Nanosecond,
			1500, 1 * clock.Nanosecond, 750,
		}
	}
	return []clock.Picos{
		32 * clock.Nanosecond, 16 * clock.Nanosecond, 8 * clock.Nanosecond,
		4 * clock.Nanosecond, 2 * clock.Nanosecond, 1 * clock.Nanosecond,
	}
}

// loadSLO is the latency objective the knee is read against: the
// highest offered load whose p99 end-to-end (arrival-to-completion)
// latency stays within the objective.
const loadSLO = 2 * clock.Microsecond

// loadDriverConfig sizes one load point: Poisson arrivals at the given
// mean gap, with the duration scaled so every point sees the same
// arrival count — equal sample sizes keep p99.9 equally resolved across
// the axis.
func loadDriverConfig(sc Scale, gap clock.Picos) trace.DriverConfig {
	cfg := trace.DefaultDriverConfig()
	cfg.MeanGap = gap
	arrivals := clock.Picos(8192)
	if sc == Full {
		arrivals = 65536
	}
	cfg.Duration = gap * arrivals
	return cfg
}

// windowBuckets renders the head of a series as percentage shares.
func windowBuckets(series []*stats.Series, n int) [][]float64 {
	rows := make([][]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, len(series))
		var total float64
		for c, s := range series {
			row[c] = s.Bucket(i)
			total += s.Bucket(i)
		}
		if total > 0 {
			for c := range row {
				row[c] = 100 * row[c] / total
			}
		}
		rows[i] = row
	}
	return rows
}
