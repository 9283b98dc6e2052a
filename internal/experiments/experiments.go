// Package experiments regenerates every table and figure of the paper's
// evaluation (section 4, section 5, and appendices A–H) from the
// simulator. Each experiment has a stable ID; see DESIGN.md for the
// experiment index mapping IDs to paper artifacts.
package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"ppcsim"
	"ppcsim/internal/report"
)

// Options configures an experiment run.
type Options struct {
	// Out receives the rendered tables and figures.
	Out io.Writer
	// Quick truncates traces and shrinks parameter grids so the whole
	// suite runs in seconds; shapes are preserved, magnitudes shrink.
	Quick bool
	// Algs, when non-empty, restricts the multi-algorithm experiments
	// (the appendix baselines) to the listed algorithms.
	Algs []ppcsim.Algorithm
	// SVGDir, when set, also writes every figure as an SVG file there.
	SVGDir string
}

// revAggGrid is the grid over which reverse aggressive's parameters are
// "chosen to minimize elapsed time" (the paper's baseline rule): the
// library's appendix-F default, or a smaller one in quick mode.
func (o *Options) revAggGrid() ppcsim.ReverseAggressiveGrid {
	if o.Quick {
		return ppcsim.ReverseAggressiveGrid{Estimates: []float64{2, 8, 32}, Batches: []int{16, 80}}
	}
	return ppcsim.ReverseAggressiveGrid{}
}

// wantAlg reports whether the Algs filter admits the algorithm (an empty
// filter admits everything).
func (o *Options) wantAlg(a ppcsim.Algorithm) bool {
	if len(o.Algs) == 0 {
		return true
	}
	for _, want := range o.Algs {
		if want == a {
			return true
		}
	}
	return false
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(o *Options) error
}

// Registry returns every experiment in paper order.
func Registry() []Experiment {
	return []Experiment{
		{"table2", "Table 2: cross-validation of the two disk models (xds, synth)", Table2},
		{"table3", "Table 3: trace summary data", Table3},
		{"fig2", "Figure 2: performance on the postgres-select trace (with demand fetching)", Fig2},
		{"fig3", "Figure 3: performance on the synth and cscope1 traces", Fig3},
		{"table4", "Table 4: disk utilization on the postgres-select trace", Table4},
		{"fig4", "Figure 4: performance on the ld trace", Fig4},
		{"fig5", "Figure 5: performance on the cscope3 trace", Fig5},
		{"table5", "Table 5: CSCAN improvement over FCFS on the postgres-select trace", Table5},
		{"fig6", "Figure 6: aggressive's performance vs batch size on the cscope2 trace", Fig6},
		{"fig7", "Figure 7: fixed horizon's performance vs prefetch horizon (cscope1, cscope2)", Fig7},
		{"table7", "Table 7: fixed horizon vs aggressive as a function of cache size (glimpse)", Table7},
		{"fig8", "Figure 8: forestall on the synth and xds traces", Fig8},
		{"fig9", "Figure 9: forestall on the cscope2 trace", Fig9},
		{"fig10", "Figure 10: forestall on the glimpse trace", Fig10},
		{"table8", "Table 8: forestall's disk utilization on the postgres-select trace", Table8},
		{"appA", "Appendix A: baseline measurements, all traces", AppendixA},
		{"appB", "Appendix B: FCFS disk-head scheduling, all traces", AppendixB},
		{"appC", "Appendix C: double-speed CPU (xds)", AppendixC},
		{"appD", "Appendix D: varying cache size (glimpse, postgres-join, postgres-select, xds)", AppendixD},
		{"appE", "Appendix E: varying aggressive's batch size", AppendixE},
		{"appF", "Appendix F: varying reverse aggressive's parameters", AppendixF},
		{"appG", "Appendix G: varying fixed horizon's horizon", AppendixG},
		{"appH", "Appendix H: forestall with fixed fetch time estimates", AppendixH},
		{"ext-lru", "Extension: LRU vs optimal replacement vs prefetching", ExtLRU},
		{"ext-hints", "Extension: sensitivity to incomplete and inaccurate hints", ExtHints},
		{"ext-writes", "Extension: write-behind traffic interfering with prefetching", ExtWrites},
		{"ext-multi", "Extension: competing processes sharing the cache and array", ExtMulti},
		{"lookahead", "Extension: elapsed time vs lookahead window, with hint-less online baselines", Lookahead},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every experiment in order.
func RunAll(o *Options) error {
	for _, e := range Registry() {
		fmt.Fprintf(o.Out, "### %s — %s\n\n", e.ID, e.Title)
		if err := e.Run(o); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return nil
}

// --- trace cache -----------------------------------------------------

var (
	traceMu    sync.Mutex
	traceCache = map[string]*ppcsim.Trace{}
)

// getTrace returns the (possibly truncated) named trace, memoized.
func getTrace(o *Options, name string) *ppcsim.Trace {
	key := name
	if o.Quick {
		key += "#quick"
	}
	traceMu.Lock()
	defer traceMu.Unlock()
	if t, ok := traceCache[key]; ok {
		return t
	}
	t, err := ppcsim.NewTrace(name)
	if err != nil {
		panic(err)
	}
	if o.Quick {
		n := len(t.Refs) / 8
		if n < 4000 {
			n = 4000
		}
		t = t.Truncate(n)
	}
	traceCache[key] = t
	return t
}

// diskCounts returns the array sizes the appendix uses for the trace.
func diskCounts(name string) []int {
	switch name {
	case "synth":
		return []int{1, 2, 3, 4}
	case "dinero", "cscope1", "postgres-join", "xds":
		return []int{1, 2, 3, 4, 5, 6}
	default:
		return []int{1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16}
	}
}

// run executes a single configuration, panicking on simulator errors
// (they indicate bugs, not bad input).
func run(opts ppcsim.Options) ppcsim.Result {
	r, err := ppcsim.Run(opts)
	if err != nil {
		panic(err)
	}
	return r
}

// runParallel evaluates configs concurrently and returns results in
// order. The simulator is single-threaded per run; experiments are
// embarrassingly parallel across configurations.
func runParallel(cfgs []ppcsim.Options) []ppcsim.Result {
	out := make([]ppcsim.Result, len(cfgs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, 4)
	for i, cfg := range cfgs {
		wg.Add(1)
		go func(i int, cfg ppcsim.Options) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			out[i] = run(cfg)
		}(i, cfg)
	}
	wg.Wait()
	return out
}

// algSeries holds one algorithm's results across disk counts.
type algSeries struct {
	name string
	res  map[int]ppcsim.Result
}

// appendixTable renders results in the layout of the paper's appendix:
// one metrics block per algorithm, one column per array size.
func appendixTable(title string, disks []int, series []algSeries) *report.Table {
	t := &report.Table{Title: title}
	t.Columns = append(t.Columns, "Metric")
	for _, d := range disks {
		t.Columns = append(t.Columns, fmt.Sprintf("%dd", d))
	}
	metric := func(name string, get func(ppcsim.Result) string, s algSeries) {
		row := []string{name}
		for _, d := range disks {
			row = append(row, get(s.res[d]))
		}
		t.AddRow(row...)
	}
	for _, s := range series {
		head := []string{"-- " + s.name + " --"}
		for range disks {
			head = append(head, "")
		}
		t.AddRow(head...)
		metric("fetches", func(r ppcsim.Result) string { return report.I(r.Fetches) }, s)
		metric("driver time (sec)", func(r ppcsim.Result) string { return report.F(r.DriverTimeSec) }, s)
		metric("stall time (sec)", func(r ppcsim.Result) string { return report.F(r.StallTimeSec) }, s)
		metric("elapsed time (sec)", func(r ppcsim.Result) string { return report.F(r.ElapsedSec) }, s)
		metric("avg fetch time (msec)", func(r ppcsim.Result) string { return report.F(r.AvgFetchMs) }, s)
		metric("avg disk utilization", func(r ppcsim.Result) string { return report.F2(r.AvgUtilization) }, s)
	}
	return t
}

// renderFigure writes the figure to the text output and, when SVGDir is
// set, to <SVGDir>/<id>.svg.
func renderFigure(o *Options, id string, f *report.Figure) {
	f.Render(o.Out)
	if o.SVGDir == "" {
		return
	}
	path := filepath.Join(o.SVGDir, id+".svg")
	file, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(o.Out, "note: could not write %s: %v\n\n", path, err)
		return
	}
	defer file.Close()
	if err := f.RenderSVG(file); err != nil {
		fmt.Fprintf(o.Out, "note: could not render %s: %v\n\n", path, err)
	}
}

// breakdownFigure renders the paper's stacked-bar elapsed-time figures:
// for each array size, one bar per algorithm split into cpu, driver, and
// stall components.
func breakdownFigure(title string, disks []int, series []algSeries) *report.Figure {
	f := &report.Figure{
		Title:    title,
		SegNames: []string{"cpu", "driver", "stall"},
		Unit:     "s",
	}
	for _, d := range disks {
		for _, s := range series {
			r := s.res[d]
			f.Add(fmt.Sprintf("%2dd %-9s", d, abbrev(s.name)),
				r.ComputeSec, r.DriverTimeSec, r.StallTimeSec)
		}
	}
	return f
}

func abbrev(name string) string {
	switch name {
	case "demand":
		return "demand"
	case "fixed-horizon":
		return "fixed hor"
	case "aggressive":
		return "aggr"
	case "reverse-aggressive":
		return "rev aggr"
	case "forestall":
		return "forestall"
	}
	return name
}

// collect runs one algorithm across disk counts.
func collect(o *Options, traceName string, alg ppcsim.Algorithm, disks []int, mutate func(*ppcsim.Options)) algSeries {
	tr := getTrace(o, traceName)
	cfgs := make([]ppcsim.Options, len(disks))
	for i, d := range disks {
		cfg := ppcsim.Options{Trace: tr, Algorithm: alg, Disks: d}
		if mutate != nil {
			mutate(&cfg)
		}
		cfgs[i] = cfg
	}
	res := runParallel(cfgs)
	s := algSeries{name: string(alg), res: map[int]ppcsim.Result{}}
	for i, d := range disks {
		s.res[d] = res[i]
	}
	return s
}

// collectRevAggBest runs the best-parameter reverse aggressive across
// disk counts, panicking on simulator errors as run does.
func collectRevAggBest(o *Options, traceName string, disks []int, mutate func(*ppcsim.Options)) algSeries {
	tr := getTrace(o, traceName)
	s := algSeries{name: string(ppcsim.ReverseAggressive), res: map[int]ppcsim.Result{}}
	for _, d := range disks {
		cfg := ppcsim.Options{Trace: tr, Disks: d}
		if mutate != nil {
			mutate(&cfg)
		}
		r, _, err := ppcsim.RunBestReverseAggressive(cfg, o.revAggGrid())
		if err != nil {
			panic(err)
		}
		s.res[d] = r
	}
	return s
}

// sortedDisks returns the keys of a series in ascending order.
func sortedDisks(s algSeries) []int {
	var ds []int
	for d := range s.res {
		ds = append(ds, d)
	}
	sort.Ints(ds)
	return ds
}
