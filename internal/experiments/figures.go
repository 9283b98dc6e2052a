package experiments

import (
	"fmt"

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
		}
		for _, d := range disks {
			tr := getTrace(o, name)
			fhF := run(ppcsim.Options{Trace: tr, Algorithm: ppcsim.FixedHorizon, Disks: d})
			agF := run(ppcsim.Options{Trace: tr, Algorithm: ppcsim.Aggressive, Disks: d})
			fhS := run(ppcsim.Options{Trace: tr, Algorithm: ppcsim.FixedHorizon, Disks: d, SimpleDiskModel: true})
			agS := run(ppcsim.Options{Trace: tr, Algorithm: ppcsim.Aggressive, Disks: d, SimpleDiskModel: true})
			t.AddRow(fmt.Sprintf("%d", d),
				report.F(fhF.ElapsedSec), report.F(agF.ElapsedSec),
				report.F(fhS.ElapsedSec), report.F(agS.ElapsedSec))
		}
		t.Notes = append(t.Notes,
			"the paper cross-validated UW (HP 97560) and CMU (IBM Lightning) simulators; we compare our two drive models the same way")
		t.Render(o.Out)
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

// Fig2 reproduces Figure 2: optimal demand fetching and the three
// prefetching algorithms on postgres-select across 1–16 disks.
func Fig2(o *Options) error {
	disks := diskCounts("postgres-select")
	series := []algSeries{
		collect(o, "postgres-select", ppcsim.Demand, disks, nil),
		collect(o, "postgres-select", ppcsim.FixedHorizon, disks, nil),
		collect(o, "postgres-select", ppcsim.Aggressive, disks, nil),
		collectRevAggBest(o, "postgres-select", disks, nil),
	}
	renderFigure(o, "fig2", breakdownFigure("Performance on the postgres-select trace", disks, series))
	appendixTable("postgres-select elapsed-time breakdown", disks, series).Render(o.Out)
	return nil
}

// Fig3 reproduces Figure 3: synth and cscope1 with the three prefetching
// algorithms on 1–4 disks.
func Fig3(o *Options) error {
	for _, name := range []string{"synth", "cscope1"} {
		disks := []int{1, 2, 3, 4}
		series := []algSeries{
			collect(o, name, ppcsim.FixedHorizon, disks, nil),
			collect(o, name, ppcsim.Aggressive, disks, nil),
			collectRevAggBest(o, name, disks, nil),
		}
		renderFigure(o, "fig3-"+name, breakdownFigure(fmt.Sprintf("Performance on the %s trace", name), disks, series))
		appendixTable(fmt.Sprintf("%s detail", name), disks, series).Render(o.Out)
	}
	return nil
}

// Table4 reproduces Table 4: disk utilization on postgres-select.
func Table4(o *Options) error {
	disks := diskCounts("postgres-select")
	series := []algSeries{
		collect(o, "postgres-select", ppcsim.Demand, disks, nil),
		collect(o, "postgres-select", ppcsim.FixedHorizon, disks, nil),
		collect(o, "postgres-select", ppcsim.Aggressive, disks, nil),
		collectRevAggBest(o, "postgres-select", disks, nil),
	}
	t := &report.Table{
		Title:   "Disk utilization on the postgres-select trace",
		Columns: []string{"disks", "demand", "fixed horizon", "aggressive", "reverse aggressive"},
	}
	for _, d := range disks {
		t.AddRow(fmt.Sprintf("%d", d),
			report.F2(series[0].res[d].AvgUtilization),
			report.F2(series[1].res[d].AvgUtilization),
			report.F2(series[2].res[d].AvgUtilization),
			report.F2(series[3].res[d].AvgUtilization))
	}
	t.Render(o.Out)
	return nil
}

// Fig4 reproduces Figure 4: the ld trace, 1–16 disks.
func Fig4(o *Options) error {
	disks := diskCounts("ld")
	series := []algSeries{
		collect(o, "ld", ppcsim.FixedHorizon, disks, nil),
		collect(o, "ld", ppcsim.Aggressive, disks, nil),
		collectRevAggBest(o, "ld", disks, nil),
	}
	renderFigure(o, "fig4", breakdownFigure("Performance on the ld trace", disks, series))
	appendixTable("ld detail", disks, series).Render(o.Out)
	return nil
}

// Fig5 reproduces Figure 5: the cscope3 trace, where reverse aggressive's
// fixed fetch-time estimate conflicts with bursty compute times.
func Fig5(o *Options) error {
	disks := []int{1, 2, 3, 4, 5, 6, 7, 8}
	series := []algSeries{
		collect(o, "cscope3", ppcsim.FixedHorizon, disks, nil),
		collect(o, "cscope3", ppcsim.Aggressive, disks, nil),
		collectRevAggBest(o, "cscope3", disks, nil),
	}
	renderFigure(o, "fig5", breakdownFigure("Performance on the cscope3 trace", disks, series))
	appendixTable("cscope3 detail", disks, series).Render(o.Out)
	return nil
}

// Table5 reproduces Table 5: the percentage improvement of CSCAN over
// FCFS on postgres-select.
func Table5(o *Options) error {
	disks := diskCounts("postgres-select")
	t := &report.Table{
		Title:   "Percentage improvement of CSCAN over FCFS on the postgres-select trace",
		Columns: []string{"disks", "fixed horizon", "aggressive", "reverse aggressive"},
	}
	algs := []ppcsim.Algorithm{ppcsim.FixedHorizon, ppcsim.Aggressive, ppcsim.ReverseAggressive}
	tr := getTrace(o, "postgres-select")
	for _, d := range disks {
		row := []string{fmt.Sprintf("%d", d)}
		for _, alg := range algs {
			var cs, fc ppcsim.Result
			if alg == ppcsim.ReverseAggressive {
				var err error
				if cs, _, err = ppcsim.RunBestReverseAggressive(ppcsim.Options{Trace: tr, Disks: d}, o.revAggGrid()); err != nil {
					return err
				}
				if fc, _, err = ppcsim.RunBestReverseAggressive(ppcsim.Options{Trace: tr, Disks: d, Scheduler: ppcsim.FCFS}, o.revAggGrid()); err != nil {
					return err
				}
			} else {
				cs = run(ppcsim.Options{Trace: tr, Algorithm: alg, Disks: d})
				fc = run(ppcsim.Options{Trace: tr, Algorithm: alg, Disks: d, Scheduler: ppcsim.FCFS})
			}
			imp := (fc.ElapsedSec - cs.ElapsedSec) / fc.ElapsedSec * 100
			row = append(row, fmt.Sprintf("%.2f", imp))
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
	for _, k := range caches {
		row := []string{fmt.Sprintf("%d", k)}
		for _, d := range disks {
			fh := run(ppcsim.Options{Trace: getTrace(o, "glimpse"), Algorithm: ppcsim.FixedHorizon, Disks: d, CacheBlocks: k})
			ag := run(ppcsim.Options{Trace: getTrace(o, "glimpse"), Algorithm: ppcsim.Aggressive, Disks: d, CacheBlocks: k})
			row = append(row, fmt.Sprintf("%.1f", (fh.ElapsedSec-ag.ElapsedSec)/ag.ElapsedSec*100))
		}
		t.AddRow(row...)
	}
	t.Render(o.Out)
	return nil
}

// Fig8 reproduces Figure 8: forestall against fixed horizon and
// aggressive on synth and xds.
func Fig8(o *Options) error {
	for _, spec := range []struct {
		name  string
		disks []int
	}{
		{"synth", []int{1, 2, 3, 4}},
		{"xds", []int{1, 2, 3, 4, 5, 6}},
	} {
		series := []algSeries{
			collect(o, spec.name, ppcsim.FixedHorizon, spec.disks, nil),
			collect(o, spec.name, ppcsim.Aggressive, spec.disks, nil),
			collect(o, spec.name, ppcsim.Forestall, spec.disks, nil),
		}
		renderFigure(o, "fig8-"+spec.name, breakdownFigure(fmt.Sprintf("Performance on the %s trace (with forestall)", spec.name), spec.disks, series))
		appendixTable(fmt.Sprintf("%s detail", spec.name), spec.disks, series).Render(o.Out)
	}
	return nil
}

// Fig9 reproduces Figure 9: forestall on cscope2, 1–16 disks.
func Fig9(o *Options) error {
	disks := diskCounts("cscope2")
	series := []algSeries{
		collect(o, "cscope2", ppcsim.FixedHorizon, disks, nil),
		collect(o, "cscope2", ppcsim.Aggressive, disks, nil),
		collect(o, "cscope2", ppcsim.Forestall, disks, nil),
	}
	renderFigure(o, "fig9", breakdownFigure("Performance on the cscope2 trace (with forestall)", disks, series))
	appendixTable("cscope2 detail", disks, series).Render(o.Out)
	return nil
}

// Fig10 reproduces Figure 10: forestall on glimpse, 1–16 disks.
func Fig10(o *Options) error {
	disks := diskCounts("glimpse")
	series := []algSeries{
		collect(o, "glimpse", ppcsim.FixedHorizon, disks, nil),
		collect(o, "glimpse", ppcsim.Aggressive, disks, nil),
		collect(o, "glimpse", ppcsim.Forestall, disks, nil),
	}
	renderFigure(o, "fig10", breakdownFigure("Performance on the glimpse trace (with forestall)", disks, series))
	appendixTable("glimpse detail", disks, series).Render(o.Out)
	return nil
}

// Table8 reproduces Table 8: forestall's disk utilization on
// postgres-select.
func Table8(o *Options) error {
	disks := diskCounts("postgres-select")
	s := collect(o, "postgres-select", ppcsim.Forestall, disks, nil)
	t := &report.Table{
		Title:   "Utilization of disks by forestall on the postgres-select trace",
		Columns: []string{"disks", "util."},
	}
	for _, d := range disks {
		t.AddRow(fmt.Sprintf("%d", d), report.F2(s.res[d].AvgUtilization))
	}
	t.Render(o.Out)
	return nil
}
