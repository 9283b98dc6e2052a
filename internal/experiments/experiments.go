// Package experiments regenerates every table and figure of the paper's
// evaluation (section 4, section 5, and appendices A–H) from the
// simulator. Each experiment has a stable ID; see DESIGN.md for the
// experiment index mapping IDs to paper artifacts.
//
// An experiment lists the simulations it needs as cells and renders from
// the Results that Options.run returns. The runner simulates each
// distinct cell once per Options, so artifacts that re-read the same
// runs (Table 4 reads Figure 2's, the appendix-A tables hold the data
// behind the figures) share them.
package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

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

	// memo holds the Result of every cell run with these Options. It and
	// seen are unsynchronized: an Options runs one experiment at a time.
	memo map[cellKey]ppcsim.Result
	// seen, when non-nil, collects every Result the experiments ask the
	// runner for, memo hits included.
	seen *[]ppcsim.Result
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

// wanted returns the algorithms the Algs filter admits (an empty filter
// admits everything).
func (o *Options) wanted(algs ...ppcsim.Algorithm) []ppcsim.Algorithm {
	if len(o.Algs) == 0 {
		return algs
	}
	var out []ppcsim.Algorithm
	for _, a := range algs {
		for _, want := range o.Algs {
			if want == a {
				out = append(out, a)
				break
			}
		}
	}
	return out
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
		{"fig2", "Figure 2: performance on the postgres-select trace (with demand fetching)", breakdownFigures("fig2")},
		{"fig3", "Figure 3: performance on the synth and cscope1 traces", breakdownFigures("fig3-synth", "fig3-cscope1")},
		{"table4", "Table 4: disk utilization on the postgres-select trace", Table4},
		{"fig4", "Figure 4: performance on the ld trace", breakdownFigures("fig4")},
		{"fig5", "Figure 5: performance on the cscope3 trace", breakdownFigures("fig5")},
		{"table5", "Table 5: CSCAN improvement over FCFS on the postgres-select trace", Table5},
		{"fig6", "Figure 6: aggressive's performance vs batch size on the cscope2 trace", Fig6},
		{"fig7", "Figure 7: fixed horizon's performance vs prefetch horizon (cscope1, cscope2)", Fig7},
		{"table7", "Table 7: fixed horizon vs aggressive as a function of cache size (glimpse)", Table7},
		{"fig8", "Figure 8: forestall on the synth and xds traces", breakdownFigures("fig8-synth", "fig8-xds")},
		{"fig9", "Figure 9: forestall on the cscope2 trace", breakdownFigures("fig9")},
		{"fig10", "Figure 10: forestall on the glimpse trace", breakdownFigures("fig10")},
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

// RunAll executes the experiments in order, each under a
// "### id — title" header; an error is prefixed with the failing ID.
func RunAll(o *Options, exps []Experiment) error {
	for _, e := range exps {
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

// --- cells and the runner ----------------------------------------------

// cell is one simulation an experiment asks for: a run of opts or, when
// best is set, reverse aggressive's best-of-grid run from opts.
type cell struct {
	opts ppcsim.Options
	best bool
}

// cellKey identifies a cell in the memo. The cell's Hints pointer is
// cleared and its HintSpec compared by value, so cells built with
// separate but equal specs share one run.
type cellKey struct {
	cell
	hints  ppcsim.HintSpec
	hinted bool
}

func (c cell) key() cellKey {
	k := cellKey{cell: c}
	if c.opts.Hints != nil {
		k.hints, k.hinted, k.opts.Hints = *c.opts.Hints, true, nil
	}
	return k
}

// run returns the Results of rows' cells, in the same shape. Each cell
// these Options have not run before is simulated once: the plain cells
// on GOMAXPROCS workers, then the best-of cells one at a time, since each
// already spreads its grid over GOMAXPROCS goroutines. So at most
// GOMAXPROCS simulations are ever in flight. A simulator error panics:
// the experiments build every cell themselves, so it is a bug, not bad
// input.
func (o *Options) run(rows ...[]cell) [][]ppcsim.Result {
	if o.memo == nil {
		o.memo = map[cellKey]ppcsim.Result{}
	}
	var plain, best []cellKey
	queued := map[cellKey]bool{}
	for _, row := range rows {
		for _, c := range row {
			k := c.key()
			if _, done := o.memo[k]; done || queued[k] {
				continue
			}
			queued[k] = true
			if c.best {
				best = append(best, k)
			} else {
				plain = append(plain, k)
			}
		}
	}
	res := make([]ppcsim.Result, len(plain))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(plain)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(plain); i = int(next.Add(1) - 1) {
				res[i] = o.simulate(plain[i])
			}
		}()
	}
	wg.Wait()
	for i, k := range plain {
		o.memo[k] = res[i]
	}
	for _, k := range best {
		o.memo[k] = o.simulate(k)
	}
	out := make([][]ppcsim.Result, len(rows))
	for i, row := range rows {
		for _, c := range row {
			r := o.memo[c.key()]
			out[i] = append(out[i], r)
			if o.seen != nil {
				*o.seen = append(*o.seen, r)
			}
		}
	}
	return out
}

// simulate runs one cell.
func (o *Options) simulate(k cellKey) ppcsim.Result {
	opts := k.opts
	if k.hinted {
		opts.Hints = &k.hints
	}
	var r ppcsim.Result
	var err error
	if k.best {
		r, _, err = ppcsim.RunBestReverseAggressive(opts, o.revAggGrid())
	} else {
		r, err = ppcsim.Run(opts)
	}
	if err != nil {
		panic(err)
	}
	return r
}

// diskRow returns alg's cells on tr, one per array size, each adjusted by
// mutate (which may be nil).
func diskRow(tr *ppcsim.Trace, alg ppcsim.Algorithm, disks []int, mutate func(*ppcsim.Options)) []cell {
	row := make([]cell, len(disks))
	for i, d := range disks {
		row[i].opts = ppcsim.Options{Trace: tr, Algorithm: alg, Disks: d}
		if mutate != nil {
			mutate(&row[i].opts)
		}
	}
	return row
}

// algCells returns one cell per algorithm, each on tr at the given array
// size with the given hints.
func algCells(tr *ppcsim.Trace, algs []ppcsim.Algorithm, disks int, hints *ppcsim.HintSpec) []cell {
	row := make([]cell, len(algs))
	for i, a := range algs {
		row[i].opts = ppcsim.Options{Trace: tr, Algorithm: a, Disks: disks, Hints: hints}
	}
	return row
}

// algRows returns one diskRow per algorithm. Reverse aggressive stands
// for its best-of-grid run, the paper's baseline rule for its
// parameters.
func algRows(tr *ppcsim.Trace, disks []int, algs []ppcsim.Algorithm, mutate func(*ppcsim.Options)) [][]cell {
	rows := make([][]cell, len(algs))
	for i, alg := range algs {
		rows[i] = diskRow(tr, alg, disks, mutate)
		for j := range rows[i] {
			rows[i][j].best = alg == ppcsim.ReverseAggressive
		}
	}
	return rows
}

// --- rendering ---------------------------------------------------------

// algTable runs algRows and lays the results out as an appendix table,
// one block per algorithm; it returns the table unrendered, with the
// results.
func algTable(o *Options, title string, tr *ppcsim.Trace, disks []int, algs []ppcsim.Algorithm, mutate func(*ppcsim.Options)) (*report.Table, [][]ppcsim.Result) {
	res := o.run(algRows(tr, disks, algs, mutate)...)
	names := make([]string, len(algs))
	for i, a := range algs {
		names[i] = string(a)
	}
	return appendixTable(title, disks, names, res), res
}

// appendixMetrics are the rows of each block of an appendix table.
var appendixMetrics = []struct {
	name string
	get  func(ppcsim.Result) string
}{
	{"fetches", func(r ppcsim.Result) string { return report.I(r.Fetches) }},
	{"driver time (sec)", func(r ppcsim.Result) string { return report.F(r.DriverTimeSec) }},
	{"stall time (sec)", func(r ppcsim.Result) string { return report.F(r.StallTimeSec) }},
	{"elapsed time (sec)", func(r ppcsim.Result) string { return report.F(r.ElapsedSec) }},
	{"avg fetch time (msec)", func(r ppcsim.Result) string { return report.F(r.AvgFetchMs) }},
	{"avg disk utilization", func(r ppcsim.Result) string { return report.F2(r.AvgUtilization) }},
}

// appendixTable renders results in the layout of the paper's appendix:
// one metrics block per named row of res, one column per array size.
func appendixTable(title string, disks []int, names []string, res [][]ppcsim.Result) *report.Table {
	t := &report.Table{Title: title, Columns: []string{"Metric"}}
	for _, d := range disks {
		t.Columns = append(t.Columns, fmt.Sprintf("%dd", d))
	}
	for i, name := range names {
		t.AddRow(append([]string{"-- " + name + " --"}, make([]string, len(disks))...)...)
		for _, m := range appendixMetrics {
			row := []string{m.name}
			for _, r := range res[i] {
				row = append(row, m.get(r))
			}
			t.AddRow(row...)
		}
	}
	return t
}

// elapsedRow adds a row to t: the label, then each result's elapsed time.
func elapsedRow(t *report.Table, label string, res ...[]ppcsim.Result) {
	row := []string{label}
	for _, rs := range res {
		for _, r := range rs {
			row = append(row, report.F(r.ElapsedSec))
		}
	}
	t.AddRow(row...)
}

// elapsedTable runs rows, adds one elapsedRow per label to t, and
// renders t.
func elapsedTable(o *Options, t *report.Table, labels []string, rows [][]cell) {
	for i, rs := range o.run(rows...) {
		elapsedRow(t, labels[i], rs)
	}
	t.Render(o.Out)
}

// sweep renders a table of alg's elapsed times on tr: one row per value
// of the parameter that set assigns (headed param), one column per array
// size.
func sweep(o *Options, title, param string, tr *ppcsim.Trace, alg ppcsim.Algorithm, values, disks []int, set func(*ppcsim.Options, int), notes ...string) {
	t := &report.Table{Title: title, Columns: []string{param}, Notes: notes}
	for _, d := range disks {
		t.Columns = append(t.Columns, fmt.Sprintf("%dd", d))
	}
	labels := make([]string, len(values))
	rows := make([][]cell, len(values))
	for i, v := range values {
		labels[i] = fmt.Sprint(v)
		rows[i] = diskRow(tr, alg, disks, func(c *ppcsim.Options) { set(c, v) })
	}
	elapsedTable(o, t, labels, rows)
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

func abbrev(name string) string {
	switch name {
	case "fixed-horizon":
		return "fixed hor"
	case "aggressive":
		return "aggr"
	case "reverse-aggressive":
		return "rev aggr"
	}
	return name
}
