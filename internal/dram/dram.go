package dram

import (
	"fmt"

	"repro/internal/sim"
)

// DeviceSet is one group of DIMMs behind a set of channels — either the
// conventional DRAM DIMMs or the PIM DIMMs of a memory-bus-integrated PIM
// system. The two sets are physically distinct channel groups on the same
// memory bus (the characterization server has 3 DRAM + 3 PIM channels; the
// Table I simulation has 4 + 4).
type DeviceSet struct {
	channels []*Channel
}

// New builds a device set with one controller per channel.
func New(eng *sim.Engine, cfg Config, name string) (*DeviceSet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("dram %s: %w", name, err)
	}
	d := &DeviceSet{}
	for i := 0; i < cfg.Geometry.Channels; i++ {
		d.channels = append(d.channels, newChannel(eng, cfg, i, name))
	}
	return d, nil
}

// Channel returns controller i.
func (d *DeviceSet) Channel(i int) *Channel { return d.channels[i] }

// Stats aggregates the per-channel counters.
func (d *DeviceSet) Stats() Stats {
	s := Stats{}
	for _, c := range d.channels {
		s.Channels = append(s.Channels, c.stats)
	}
	return s
}

// Idle reports whether every channel's queues are empty.
func (d *DeviceSet) Idle() bool {
	for _, c := range d.channels {
		if !c.Idle() {
			return false
		}
	}
	return true
}
