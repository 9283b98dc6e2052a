package main

import (
	"sort"
	"time"
)

// Host speed. The reference host is a 2-vCPU VM on a shared machine, and
// its speed drifts: over tens of seconds, identical passes of
// paper-online took from 1.25 s to 2.2 s, with no steal time reported
// and a chain of dependent multiplies (calib_ms) running at a constant
// rate throughout. A run's median then depends on which spells it fell
// in, and ten runs of the same code spread by 20-30%.
//
// So simulation, request, job and set-up times are measured against a
// probe: a fixed piece of cache-bound Go code (map updates and a sort;
// standard library only, no ppcsim code) that runs between the timed
// intervals and is timed itself. A timed interval is reported at the
// reference speed, multiplied by probeRefNs ÷ the probe's ns per unit
// around it, so it reads as it would on the reference host in a quiet
// spell. Over fifty runs, ten per workload, the log of each simulation
// workload's raw refs/s fell with the log of the probe's time with a
// slope of 1.0-1.4 and a correlation of 0.96-0.99, and scaling cut the
// ten-run spreads from 22-32% to 4-10%. A change to ppcsim cannot move
// the probe: it allocates nothing and calls no ppcsim code. The raw times
// are in the result file beside the scaled ones.
//
// In a stand-alone test of 18 minutes, four simulations' speed varied by
// 8-12% (interquartile range over median) from one 30-second spell to the
// next, and by 2-4% scaled by this probe. A probe with a memory-bound
// half as well (updates to a 40 MB map) left 2-5%: no better, and its map
// would count in the workload's peak RSS.
//
// Time that is mostly goroutine wake-ups and loopback syscalls does not
// follow the probe, so serve-v1 times its requests that ran a simulation,
// not its cache hits (see serve.go).

const (
	// probeRefNs is one probe unit's time on the reference host (Intel
	// Xeon, 2 vCPUs, Go 1.24) in a quiet spell.
	probeRefNs = 160_000
	probeKeys  = 4096 // the map's key space
	probeOps   = 1000 // map updates per unit
	probeSort  = 2048 // ints sorted per unit
	// A probe after a timed interval runs for 1/probeShare of it, so long
	// intervals are matched by long probes, and for at least probeMin. A
	// probe with no interval before it runs for probeWarm.
	probeShare = 25
	probeMin   = 300 * time.Microsecond
	probeWarm  = 20 * time.Millisecond
)

// probe is the host-speed probe. Its map and slice are allocated once,
// so a unit allocates nothing and leaves the heap and alloc_bytes_per_ref
// as they were.
type probe struct {
	m    map[uint32]uint32
	keys []int
	x    uint64
	sink uint64
}

func newProbe() *probe {
	p := &probe{m: make(map[uint32]uint32, probeKeys), keys: make([]int, probeSort), x: 1}
	p.unit() // reach the working size before anything is timed
	p.measure(probeWarm)
	return p
}

func (p *probe) next() uint64 {
	p.x = p.x*6364136223846793005 + 1442695040888963407
	return p.x >> 33
}

// unit is one fixed piece of probe work.
func (p *probe) unit() {
	clear(p.m)
	for i := 0; i < probeOps; i++ {
		k := uint32(p.next() % probeKeys)
		p.m[k] += uint32(i)
		if p.m[uint32(p.next()%probeKeys)]&1 == 1 {
			delete(p.m, k)
		}
	}
	for i := range p.keys {
		p.keys[i] = int(p.next())
	}
	sort.Ints(p.keys)
	p.sink += uint64(len(p.m)) + uint64(p.keys[probeSort/2])
}

// measure runs whole units for at least d and at least probeMin, and
// returns the ns per unit.
func (p *probe) measure(d time.Duration) float64 {
	d = max(d, probeMin)
	start := time.Now()
	for n := 1; ; n++ {
		p.unit()
		if el := time.Since(start); el >= d {
			return float64(el) / float64(n)
		}
	}
}

// after probes after a timed interval that took d.
func (p *probe) after(d time.Duration) float64 { return p.measure(d / probeShare) }

// toRef is the factor that takes an interval's time to the reference
// speed, given the probe's ns per unit before and after the interval.
func toRef(before, after float64) float64 {
	return probeRefNs / ((before + after) / 2)
}
