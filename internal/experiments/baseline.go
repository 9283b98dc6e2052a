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
	for _, name := range names {
		disks := diskCounts(name)
		var series []algSeries
		for _, alg := range []ppcsim.Algorithm{ppcsim.FixedHorizon, ppcsim.Aggressive} {
			if o.wantAlg(alg) {
				series = append(series, collect(o, name, alg, disks, nil))
			}
		}
		if o.wantAlg(ppcsim.ReverseAggressive) {
			series = append(series, collectRevAggBest(o, name, disks, nil))
		}
		if o.wantAlg(ppcsim.Forestall) {
			series = append(series, collect(o, name, ppcsim.Forestall, disks, nil))
		}
		if len(series) == 0 {
			continue
		}
		appendixTable(fmt.Sprintf("Performance on the %s trace (baseline)", name), disks, series).Render(o.Out)
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
	fcfs := func(c *ppcsim.Options) { c.Scheduler = ppcsim.FCFS }
	for _, name := range names {
		disks := diskCounts(name)
		var series []algSeries
		for _, alg := range []ppcsim.Algorithm{ppcsim.FixedHorizon, ppcsim.Aggressive} {
			if o.wantAlg(alg) {
				series = append(series, collect(o, name, alg, disks, fcfs))
			}
		}
		if o.wantAlg(ppcsim.ReverseAggressive) {
			series = append(series, collectRevAggBest(o, name, disks, fcfs))
		}
		if len(series) == 0 {
			continue
		}
		appendixTable(fmt.Sprintf("Performance on the %s trace (FCFS scheduling)", name), disks, series).Render(o.Out)
	}
	return nil
}

// AppendixC reproduces the double-speed-CPU measurements on the xds
// trace: compute times halved, fixed horizon's H doubled to 124.
func AppendixC(o *Options) error {
	base := getTrace(o, "xds")
	fast := base.ScaleCompute(0.5)
	fast.Name = "xds (2x CPU)"
	disks := []int{1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16}
	if o.Quick {
		disks = []int{1, 2, 4}
	}
	mkSeries := func(alg ppcsim.Algorithm, mutate func(*ppcsim.Options)) algSeries {
		s := algSeries{name: string(alg), res: map[int]ppcsim.Result{}}
		var cfgs []ppcsim.Options
		for _, d := range disks {
			cfg := ppcsim.Options{Trace: fast, Algorithm: alg, Disks: d}
			if mutate != nil {
				mutate(&cfg)
			}
			cfgs = append(cfgs, cfg)
		}
		res := runParallel(cfgs)
		for i, d := range disks {
			s.res[d] = res[i]
		}
		return s
	}
	series := []algSeries{
		mkSeries(ppcsim.FixedHorizon, func(c *ppcsim.Options) { c.Horizon = 124 }),
		mkSeries(ppcsim.Aggressive, nil),
	}
	rev := algSeries{name: string(ppcsim.ReverseAggressive), res: map[int]ppcsim.Result{}}
	for _, d := range disks {
		r, _, err := ppcsim.RunBestReverseAggressive(ppcsim.Options{Trace: fast, Disks: d}, o.revAggGrid())
		if err != nil {
			return err
		}
		rev.res[d] = r
	}
	series = append(series, rev)
	t := appendixTable("Performance on the xds trace with a double-speed CPU (H=124)", disks, series)
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
			disks := diskCounts(name)
			if len(disks) > 6 {
				disks = disks[:6]
			}
			setK := func(c *ppcsim.Options) { c.CacheBlocks = k }
			series := []algSeries{
				collect(o, name, ppcsim.FixedHorizon, disks, setK),
				collect(o, name, ppcsim.Aggressive, disks, setK),
				collectRevAggBest(o, name, disks, setK),
			}
			appendixTable(fmt.Sprintf("Performance on the %s trace, cache size %d", name, k), disks, series).Render(o.Out)
		}
	}
	return nil
}
