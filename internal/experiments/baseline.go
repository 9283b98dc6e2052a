package experiments

import (
	"fmt"

	"ppcsim"
)

// AppendixA reproduces the baseline measurements: every trace, the four
// algorithms (fixed horizon H=62, aggressive with Table 6 batch sizes,
// reverse aggressive with best-of-grid parameters, forestall with dynamic
// estimation) across the appendix array sizes.
func AppendixA(o *Options) error {
	names := ppcsim.TraceNames
	if o.Quick {
		names = []string{"cscope1", "postgres-select", "synth"}
	}
	algs := o.wanted(ppcsim.FixedHorizon, ppcsim.Aggressive, ppcsim.ReverseAggressive, ppcsim.Forestall)
	if len(algs) == 0 {
		return nil
	}
	for _, name := range names {
		t, _ := algTable(o, fmt.Sprintf("Performance on the %s trace (baseline)", name), getTrace(o, name), diskCounts(name), algs, nil)
		t.Render(o.Out)
	}
	return nil
}

// AppendixB reproduces the FCFS measurements: the baseline configurations
// with FCFS disk-head scheduling instead of CSCAN.
func AppendixB(o *Options) error {
	names := ppcsim.TraceNames
	if o.Quick {
		names = []string{"cscope1", "postgres-select"}
	}
	algs := o.wanted(prefetchers...)
	if len(algs) == 0 {
		return nil
	}
	fcfs := func(c *ppcsim.Options) { c.Scheduler = ppcsim.FCFS }
	for _, name := range names {
		t, _ := algTable(o, fmt.Sprintf("Performance on the %s trace (FCFS scheduling)", name), getTrace(o, name), diskCounts(name), algs, fcfs)
		t.Render(o.Out)
	}
	return nil
}

// AppendixC reproduces the double-speed-CPU measurements on the xds
// trace: compute times halved, fixed horizon's H doubled to 124.
func AppendixC(o *Options) error {
	fast := getTrace(o, "xds").ScaleCompute(0.5)
	fast.Name = "xds (2x CPU)"
	disks := []int{1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16}
	if o.Quick {
		disks = []int{1, 2, 4}
	}
	h124 := func(c *ppcsim.Options) {
		if c.Algorithm == ppcsim.FixedHorizon {
			c.Horizon = 124
		}
	}
	t, _ := algTable(o, "Performance on the xds trace with a double-speed CPU (H=124)", fast, disks, prefetchers, h124)
	t.Notes = append(t.Notes, "faster processors shift the fixed-horizon/aggressive crossover to larger arrays")
	t.Render(o.Out)
	return nil
}

// AppendixD reproduces the cache-size measurements: glimpse,
// postgres-join, postgres-select and xds with 640- and 1920-block caches.
func AppendixD(o *Options) error {
	names := []string{"glimpse", "postgres-join", "postgres-select", "xds"}
	if o.Quick {
		names = []string{"postgres-select"}
	}
	for _, name := range names {
		for _, k := range []int{640, 1920} {
			setK := func(c *ppcsim.Options) { c.CacheBlocks = k }
			t, _ := algTable(o, fmt.Sprintf("Performance on the %s trace, cache size %d", name, k), getTrace(o, name), appendixDisks(name), prefetchers, setK)
			t.Render(o.Out)
		}
	}
	return nil
}
