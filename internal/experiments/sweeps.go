package experiments

import (
	"fmt"

	"ppcsim"
)

// setBatch assigns the batch size a sweep varies.
func setBatch(c *ppcsim.Options, b int) { c.BatchSize = b }

// appendixDisks returns the trace's appendix array sizes, at most six.
func appendixDisks(name string) []int {
	disks := diskCounts(name)
	return disks[:min(len(disks), 6)]
}

// Fig6 reproduces Figure 6: aggressive's elapsed time on cscope2 as a
// function of batch size, for 1–5 disks.
func Fig6(o *Options) error {
	sweep(o, "Aggressive elapsed time (secs) on cscope2 vs batch size", "batch",
		getTrace(o, "cscope2"), ppcsim.Aggressive, []int{4, 8, 16, 40, 80, 160, 320, 640, 1280}, []int{1, 2, 3, 4, 5}, setBatch,
		"performance first improves with batch size (better scheduling), then degrades (out-of-order fetching, early replacement)")
	return nil
}

// Fig7 reproduces Figure 7: fixed horizon's elapsed time on cscope1 and
// cscope2 as a function of the prefetch horizon, for 1–3 disks.
func Fig7(o *Options) error {
	for _, name := range []string{"cscope1", "cscope2"} {
		sweep(o, fmt.Sprintf("Fixed horizon elapsed time (secs) on %s vs horizon H", name), "H",
			getTrace(o, name), ppcsim.FixedHorizon, []int{16, 32, 64, 128, 256, 512, 1024, 2048}, []int{1, 2, 3},
			func(c *ppcsim.Options, h int) { c.Horizon = h })
	}
	return nil
}

// AppendixE sweeps aggressive's batch size across traces, reproducing the
// appendix-E tables (elapsed times shown; the full per-metric data is in
// appendix A format for the baseline batch).
func AppendixE(o *Options) error {
	names := []string{"dinero", "cscope1", "cscope2", "cscope3", "glimpse", "ld", "postgres-join", "postgres-select", "xds"}
	if o.Quick {
		names = []string{"cscope1", "ld"}
	}
	for _, name := range names {
		sweep(o, fmt.Sprintf("Aggressive elapsed time (secs) on %s as a function of batch size", name), "batch",
			getTrace(o, name), ppcsim.Aggressive, []int{4, 8, 16, 40, 80, 160}, appendixDisks(name), setBatch)
	}
	return nil
}

// AppendixF sweeps reverse aggressive's fetch-time estimate and batch
// size, reproducing the appendix-F elapsed-time grids.
func AppendixF(o *Options) error {
	estimates := []float64{4, 8, 16, 32, 64, 128}
	batches := []int{4, 8, 16, 40, 80, 160}
	names := []string{"dinero", "cscope1", "cscope2", "cscope3", "glimpse", "ld", "postgres-join", "postgres-select", "xds", "synth"}
	if o.Quick {
		names = []string{"cscope1", "postgres-select"}
		estimates = []float64{8, 32, 128}
		batches = []int{8, 40, 160}
	}
	for _, name := range names {
		for _, f := range estimates {
			sweep(o, fmt.Sprintf("Reverse aggressive elapsed time (secs) on %s, fetch time estimate %g", name, f), "batch",
				getTrace(o, name), ppcsim.ReverseAggressive, batches, appendixDisks(name),
				func(c *ppcsim.Options, b int) { c.FetchEstimate, c.BatchSize = f, b })
		}
	}
	return nil
}

// AppendixG sweeps fixed horizon's prefetch horizon, reproducing the
// appendix-G tables.
func AppendixG(o *Options) error {
	names := []string{"dinero", "cscope1", "cscope2", "postgres-select"}
	if o.Quick {
		names = []string{"cscope1"}
	}
	for _, name := range names {
		disks := appendixDisks(name)
		var labels []string
		var rows [][]cell
		for _, h := range []int{16, 32, 64, 128, 256, 512, 1024, 2048} {
			labels = append(labels, fmt.Sprintf("horizon %d", h))
			rows = append(rows, diskRow(getTrace(o, name), ppcsim.FixedHorizon, disks, func(c *ppcsim.Options) { c.Horizon = h }))
		}
		appendixTable(fmt.Sprintf("Fixed horizon on %s as a function of the horizon", name), disks, labels, o.run(rows...)).Render(o.Out)
	}
	return nil
}

// AppendixH runs forestall with fixed fetch-time estimates, reproducing
// the appendix-H tables.
func AppendixH(o *Options) error {
	fixed := []float64{2, 4, 8, 15, 30, 60}
	names := []string{"dinero", "cscope1", "cscope2", "glimpse", "ld", "postgres-select"}
	if o.Quick {
		names = []string{"cscope1"}
		fixed = []float64{2, 15, 60}
	}
	for _, name := range names {
		disks := appendixDisks(name)
		tr := getTrace(o, name)
		// Dynamic estimation first, for reference.
		labels := []string{"forestall (dynamic F)"}
		rows := [][]cell{diskRow(tr, ppcsim.Forestall, disks, nil)}
		for _, f := range fixed {
			labels = append(labels, fmt.Sprintf("forestall (F'=%g)", f))
			rows = append(rows, diskRow(tr, ppcsim.Forestall, disks, func(c *ppcsim.Options) { c.ForestallFixedF = f }))
		}
		appendixTable(fmt.Sprintf("Forestall on %s with fixed fetch time estimates", name), disks, labels, o.run(rows...)).Render(o.Out)
	}
	return nil
}
