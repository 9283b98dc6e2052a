package experiments

import (
	"fmt"

	"ppcsim"
	"ppcsim/internal/report"
)

// Lookahead sweeps the hint lookahead window W for the paper's online
// algorithms and compares them against the two hint-less online policies
// (readahead, history). The paper has no counterpart for this sweep —
// its section 6 names limited knowledge as an open question — so the
// expected shape comes from its discussion: elapsed time should fall
// monotonically as W grows and approach the full-knowledge value once W
// covers a cache-full of references, while the hint-less baselines are
// flat lines that bound the W→0 end from above (history, readahead) and
// the W→∞ end from below (full hints).
func Lookahead(o *Options) error {
	names := []string{"synth", "xds"}
	windows := []int{16, 64, 256, 1024, 0}
	if o.Quick {
		names = []string{"synth"}
		windows = []int{16, 256, 0}
	}
	const disks = 4
	for _, name := range names {
		if err := lookaheadSweep(o, "lookahead-"+name, getTrace(o, name), disks, windows); err != nil {
			return err
		}
	}
	return nil
}

// lookaheadSweep renders the window-sweep table and figure for one
// trace. It is factored out of Lookahead so the golden tests can drive
// it with a small synthetic trace; windows lists the W values to sweep,
// with 0 meaning unlimited lookahead.
func lookaheadSweep(o *Options, figID string, tr *ppcsim.Trace, disks int, windows []int) error {
	algs := []ppcsim.Algorithm{ppcsim.Demand, ppcsim.FixedHorizon, ppcsim.Aggressive, ppcsim.Forestall}
	online := []ppcsim.Algorithm{ppcsim.Readahead, ppcsim.History}

	t := &report.Table{
		Title:   fmt.Sprintf("Lookahead window sweep on %s (%d disks): elapsed time (secs)", tr.Name, disks),
		Columns: []string{"window"},
	}
	for _, a := range algs {
		t.Columns = append(t.Columns, string(a))
	}
	for _, a := range online {
		t.Columns = append(t.Columns, string(a))
	}

	fig := &report.Figure{
		Title:    fmt.Sprintf("Lookahead window sweep on %s (%d disks)", tr.Name, disks),
		SegNames: []string{"cpu", "driver", "stall"},
		Unit:     "s",
	}
	// The hint-less baselines ignore the window entirely; ask for them once.
	rows := [][]cell{algCells(tr, online, disks, nil)}
	labels := make([]string, len(windows))
	for i, w := range windows {
		labels[i] = fmt.Sprintf("W=%d", w)
		var hints *ppcsim.HintSpec
		if w == 0 {
			labels[i] = "unlimited"
		} else {
			hints = &ppcsim.HintSpec{Fraction: 1, Accuracy: 1, Window: w}
		}
		rows = append(rows, algCells(tr, algs, disks, hints))
	}
	res := o.run(rows...)
	for i, label := range labels {
		elapsedRow(t, label, res[i+1], res[0])
		for j, r := range res[i+1] {
			fig.Add(fmt.Sprintf("%-9s %-9s", label, abbrev(string(algs[j]))),
				r.ComputeSec, r.DriverTimeSec, r.StallTimeSec)
		}
	}
	for i, r := range res[0] {
		fig.Add(fmt.Sprintf("%-9s %-9s", "no hints", abbrev(string(online[i]))),
			r.ComputeSec, r.DriverTimeSec, r.StallTimeSec)
	}
	t.Notes = append(t.Notes,
		"W limits how far past the cursor hinted references are visible; eviction falls back to LRU beyond the horizon",
		"readahead and history use no hints at all, so their columns do not vary with W")
	t.Render(o.Out)
	renderFigure(o, figID, fig)
	return nil
}
