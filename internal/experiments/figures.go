package experiments

import (
	"fmt"
	"slices"

	"ppcsim"
	"ppcsim/internal/report"
)

// Table2 cross-validates the two disk models on the xds and synth traces,
// standing in for the paper's UW/CMU simulator comparison: elapsed times
// for fixed horizon and aggressive should agree closely, with remaining
// differences explained by the drive models.
func Table2(o *Options) error {
	for _, name := range []string{"xds", "synth"} {
		disks := []int{1, 2, 3, 4}
		if name == "xds" {
			disks = []int{1, 2, 3, 4, 5}
		}
		t := &report.Table{
			Title:   fmt.Sprintf("%s elapsed times (secs): full HP 97560 model vs simple fixed-latency model", name),
			Columns: []string{"disks", "F.H. full", "Agg. full", "F.H. simple", "Agg. simple"},
			Notes:   []string{"the paper cross-validated UW (HP 97560) and CMU (IBM Lightning) simulators; we compare our two drive models the same way"},
		}
		tr := getTrace(o, name)
		var labels []string
		var rows [][]cell
		for _, d := range disks {
			var row []cell
			for _, simple := range []bool{false, true} {
				for _, alg := range []ppcsim.Algorithm{ppcsim.FixedHorizon, ppcsim.Aggressive} {
					row = append(row, cell{opts: ppcsim.Options{Trace: tr, Algorithm: alg, Disks: d, SimpleDiskModel: simple}})
				}
			}
			labels, rows = append(labels, fmt.Sprint(d)), append(rows, row)
		}
		elapsedTable(o, t, labels, rows)
	}
	return nil
}

// Table3 prints the trace summary data.
func Table3(o *Options) error {
	t := &report.Table{
		Title:   "Trace summary data",
		Columns: []string{"trace", "reads", "distinct blocks", "compute time (sec)"},
	}
	for _, name := range ppcsim.TraceNames {
		st := getTrace(o, name).Stats()
		t.AddRow(name, fmt.Sprintf("%d", st.Reads), fmt.Sprintf("%d", st.DistinctBlocks), report.F(st.ComputeSec))
	}
	if o.Quick {
		t.Notes = append(t.Notes, "quick mode truncates traces; full mode matches the paper's Table 3 exactly")
	}
	t.Notes = append(t.Notes,
		"postgres compute totals follow the paper's appendix tables (join 79.2s, select 11.5s); Table 3 prints the pair swapped")
	t.Render(o.Out)
	return nil
}

var (
	prefetchers   = []ppcsim.Algorithm{ppcsim.FixedHorizon, ppcsim.Aggressive, ppcsim.ReverseAggressive}
	withForestall = []ppcsim.Algorithm{ppcsim.FixedHorizon, ppcsim.Aggressive, ppcsim.Forestall}
	// postgresSelect is Figure 2's and Table 4's lineup: optimal demand
	// fetching against the three prefetchers.
	postgresSelect = append([]ppcsim.Algorithm{ppcsim.Demand}, prefetchers...)
)

// breakdown is one of the paper's stacked-bar figures: for each array
// size, one bar per algorithm split into cpu, driver, and stall time. Its
// detail table holds the same runs in the appendix layout.
type breakdown struct {
	fig, trace, detail string
	disks              []int
	algs               []ppcsim.Algorithm
}

// breakdowns lists the breakdown figures: Figures 2–5 compare the
// prefetchers, Figures 8–10 add forestall.
var breakdowns = []breakdown{
	{"fig2", "postgres-select", "postgres-select elapsed-time breakdown", diskCounts("postgres-select"), postgresSelect},
	{"fig3-synth", "synth", "synth detail", []int{1, 2, 3, 4}, prefetchers},
	{"fig3-cscope1", "cscope1", "cscope1 detail", []int{1, 2, 3, 4}, prefetchers},
	{"fig4", "ld", "ld detail", diskCounts("ld"), prefetchers},
	{"fig5", "cscope3", "cscope3 detail", []int{1, 2, 3, 4, 5, 6, 7, 8}, prefetchers},
	{"fig8-synth", "synth", "synth detail", []int{1, 2, 3, 4}, withForestall},
	{"fig8-xds", "xds", "xds detail", []int{1, 2, 3, 4, 5, 6}, withForestall},
	{"fig9", "cscope2", "cscope2 detail", diskCounts("cscope2"), withForestall},
	{"fig10", "glimpse", "glimpse detail", diskCounts("glimpse"), withForestall},
}

// breakdownFigures returns an experiment rendering the named breakdowns,
// each as its figure and then its detail table.
func breakdownFigures(figs ...string) func(*Options) error {
	return func(o *Options) error {
		for _, b := range breakdowns {
			if !slices.Contains(figs, b.fig) {
				continue
			}
			title := fmt.Sprintf("Performance on the %s trace", b.trace)
			if slices.Contains(b.algs, ppcsim.Forestall) {
				title += " (with forestall)"
			}
			t, res := algTable(o, b.detail, getTrace(o, b.trace), b.disks, b.algs, nil)
			f := &report.Figure{Title: title, SegNames: []string{"cpu", "driver", "stall"}, Unit: "s"}
			for j, d := range b.disks {
				for i, a := range b.algs {
					r := res[i][j]
					f.Add(fmt.Sprintf("%2dd %-9s", d, abbrev(string(a))), r.ComputeSec, r.DriverTimeSec, r.StallTimeSec)
				}
			}
			renderFigure(o, b.fig, f)
			t.Render(o.Out)
		}
		return nil
	}
}

// utilization renders the average disk utilization of algs on
// postgres-select, one column (headed by cols) per algorithm.
func utilization(o *Options, title string, algs []ppcsim.Algorithm, cols ...string) error {
	disks := diskCounts("postgres-select")
	res := o.run(algRows(getTrace(o, "postgres-select"), disks, algs, nil)...)
	t := &report.Table{Title: title, Columns: append([]string{"disks"}, cols...)}
	for j, d := range disks {
		row := []string{fmt.Sprint(d)}
		for i := range algs {
			row = append(row, report.F2(res[i][j].AvgUtilization))
		}
		t.AddRow(row...)
	}
	t.Render(o.Out)
	return nil
}

// Table4 reproduces Table 4: disk utilization on postgres-select, from
// Figure 2's runs.
func Table4(o *Options) error {
	return utilization(o, "Disk utilization on the postgres-select trace", postgresSelect,
		"demand", "fixed horizon", "aggressive", "reverse aggressive")
}

// Table8 reproduces Table 8: forestall's disk utilization on
// postgres-select.
func Table8(o *Options) error {
	return utilization(o, "Utilization of disks by forestall on the postgres-select trace",
		[]ppcsim.Algorithm{ppcsim.Forestall}, "util.")
}

// Table5 reproduces Table 5: the percentage improvement of CSCAN over
// FCFS on postgres-select.
func Table5(o *Options) error {
	disks := diskCounts("postgres-select")
	t := &report.Table{
		Title:   "Percentage improvement of CSCAN over FCFS on the postgres-select trace",
		Columns: []string{"disks", "fixed horizon", "aggressive", "reverse aggressive"},
	}
	tr := getTrace(o, "postgres-select")
	cscan := algRows(tr, disks, prefetchers, nil)
	fcfs := algRows(tr, disks, prefetchers, func(c *ppcsim.Options) { c.Scheduler = ppcsim.FCFS })
	res := o.run(append(cscan, fcfs...)...)
	for j, d := range disks {
		row := []string{fmt.Sprint(d)}
		for i := range prefetchers {
			cs, fc := res[i][j], res[len(prefetchers)+i][j]
			row = append(row, fmt.Sprintf("%.2f", (fc.ElapsedSec-cs.ElapsedSec)/fc.ElapsedSec*100))
		}
		t.AddRow(row...)
	}
	t.Render(o.Out)
	return nil
}

// Table7 reproduces Table 7: fixed horizon's elapsed time relative to
// aggressive (percentage difference) as a function of cache size and
// array size on the glimpse trace. Positive numbers mean fixed horizon is
// slower.
func Table7(o *Options) error {
	disks := []int{1, 2, 4, 8, 16}
	caches := []int{640, 1280, 1920}
	t := &report.Table{
		Title:   "Fixed horizon relative to aggressive (% elapsed-time difference) on glimpse",
		Columns: []string{"cache size"},
	}
	for _, d := range disks {
		t.Columns = append(t.Columns, fmt.Sprintf("%d disks", d))
	}
	var rows [][]cell
	for _, k := range caches {
		setK := func(c *ppcsim.Options) { c.CacheBlocks = k }
		rows = append(rows, algRows(getTrace(o, "glimpse"), disks, []ppcsim.Algorithm{ppcsim.FixedHorizon, ppcsim.Aggressive}, setK)...)
	}
	res := o.run(rows...)
	for i, k := range caches {
		row := []string{fmt.Sprint(k)}
		for j := range disks {
			fh, ag := res[2*i][j], res[2*i+1][j]
			row = append(row, fmt.Sprintf("%.1f", (fh.ElapsedSec-ag.ElapsedSec)/ag.ElapsedSec*100))
		}
		t.AddRow(row...)
	}
	t.Render(o.Out)
	return nil
}
