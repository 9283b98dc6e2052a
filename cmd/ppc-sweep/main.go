// Command ppc-sweep runs a cross-product of configurations and emits one
// CSV row per run, for plotting or regression tracking. Runs execute on a
// worker pool (-parallel, default one worker per CPU); rows are written
// in configuration order regardless of worker count, so the output is
// byte-identical for any -parallel value.
//
// Usage:
//
//	ppc-sweep -traces synth,ld -algs fixed-horizon,aggressive -disks 1,2,4
//	ppc-sweep -traces all -algs forestall -disks 1,4 -scheds cscan,fcfs -o out.csv
//	ppc-sweep -traces all -algs all -parallel 8
//	ppc-sweep -large 1e7:65536:zipf:1 -window 4096 -algs forestall -disks 2
package main

import (
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"ppcsim"
	"ppcsim/internal/report"
)

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(p)
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

func splitInts(s string) ([]int, error) {
	var out []int
	for _, p := range splitList(s) {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q: %v", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// job is one grid point of the sweep: the trace name its CSV row
// reports and the validated options it runs with. A -large job carries
// its own generator Source (sources are stateful, so they cannot be
// shared the way a read-only *Trace can).
type job struct {
	traceName string
	opts      ppcsim.Options
}

// sweepSpec is the parsed cross-product.
type sweepSpec struct {
	traces   []string
	large    *ppcsim.LargeTraceSpec
	algs     []ppcsim.Algorithm
	disks    []int
	scheds   []ppcsim.Discipline
	caches   []int
	batches  []int
	horizons []int
	hintFrac float64
	hintAcc  float64
	window   int
}

// jobs expands the spec into the ordered job list (trace-major, matching
// the CSV row order) and validates every job's options, so a bad grid
// point fails the sweep before any simulation starts. The error names
// the failing configuration.
func (sp sweepSpec) jobs() ([]job, error) {
	var hints *ppcsim.HintSpec
	if sp.hintFrac != 1 || sp.hintAcc != 1 || sp.window > 0 { //ppcvet:ignore flag-default sentinels, parsed rather than computed
		hints = &ppcsim.HintSpec{Fraction: sp.hintFrac, Accuracy: sp.hintAcc, Window: sp.window}
	}
	type traceCase struct {
		name  string
		trace *ppcsim.Trace
	}
	var cases []traceCase
	if sp.large != nil {
		cases = []traceCase{{name: sp.large.ResolvedName()}}
	} else {
		for _, tn := range sp.traces {
			tr, err := ppcsim.NewTrace(tn)
			if err != nil {
				return nil, &ppcsim.ConfigError{Field: "Trace", Reason: err.Error()}
			}
			cases = append(cases, traceCase{name: tn, trace: tr})
		}
	}
	var out []job
	for _, tc := range cases {
		for _, alg := range sp.algs {
			for _, d := range sp.disks {
				for _, sched := range sp.scheds {
					for _, k := range sp.caches {
						for _, b := range sp.batches {
							for _, h := range sp.horizons {
								j := job{traceName: tc.name, opts: ppcsim.Options{
									Trace:       tc.trace,
									Algorithm:   alg,
									Disks:       d,
									Scheduler:   sched,
									CacheBlocks: k,
									BatchSize:   b,
									Horizon:     h,
									Hints:       hints,
								}}
								var err error
								if sp.large != nil {
									if j.opts.Source, err = sp.large.Source(); err != nil {
										err = &ppcsim.ConfigError{Field: "Trace", Reason: err.Error()}
									}
								}
								if err == nil {
									err = j.opts.Validate()
								}
								if err != nil {
									return nil, j.wrap(err)
								}
								out = append(out, j)
							}
						}
					}
				}
			}
		}
	}
	return out, nil
}

// wrap names the job's configuration in err.
func (j job) wrap(err error) error {
	return fmt.Errorf("%s/%s/d=%d: %w", j.traceName, j.opts.Algorithm, j.opts.Disks, err)
}

// runSweep executes every job on `parallel` workers and writes the CSV in
// job order. A run that shares a *Trace with other workers is safe: the
// simulator treats the trace as read-only.
func runSweep(sp sweepSpec, jobs []job, parallel int, w io.Writer) error {
	if parallel < 1 {
		parallel = 1
	}
	if parallel > len(jobs) && len(jobs) > 0 {
		parallel = len(jobs)
	}

	results := make([]ppcsim.Result, len(jobs))
	errs := make([]error, len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < parallel; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range next {
				results[idx], errs[idx] = ppcsim.Run(jobs[idx].opts)
			}
		}()
	}
	for idx := range jobs {
		next <- idx
	}
	close(next)
	wg.Wait()

	cw := csv.NewWriter(w)
	if err := cw.Write(report.SweepHeader()); err != nil {
		return err
	}
	for idx, j := range jobs {
		if errs[idx] != nil {
			cw.Flush()
			return j.wrap(errs[idx])
		}
		o := j.opts
		run := report.SweepRun{
			Trace: j.traceName, Algorithm: string(o.Algorithm), Disks: o.Disks, Scheduler: o.Scheduler.String(),
			CacheBlocks: o.CacheBlocks, Batch: o.BatchSize, Horizon: o.Horizon,
			HintFraction: sp.hintFrac, HintAccuracy: sp.hintAcc, Window: sp.window,
		}
		if err := cw.Write(report.SweepRow(run, results[idx])); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func main() {
	var (
		traces   = flag.String("traces", "synth", "comma-separated trace names, or 'all'")
		large    = flag.String("large", "", "stream a synthetic trace instead of -traces: refs[:blocks[:pattern[:seed]]] (requires -window)")
		algs     = flag.String("algs", "fixed-horizon,aggressive,forestall", "comma-separated algorithms, or 'all'")
		disks    = flag.String("disks", "1,2,4", "comma-separated array sizes")
		scheds   = flag.String("scheds", "cscan", "comma-separated schedulers: cscan,fcfs")
		caches   = flag.String("caches", "0", "comma-separated cache sizes (0 = trace default)")
		batches  = flag.String("batches", "0", "comma-separated batch sizes (0 = paper default)")
		horizons = flag.String("horizons", "0", "comma-separated horizons (0 = 62)")
		hintFrac = flag.Float64("hint-fraction", 1, "fraction of references disclosed")
		hintAcc  = flag.Float64("hint-accuracy", 1, "accuracy of disclosed hints")
		window   = flag.Int("window", 0, "lookahead window in references (0 = unlimited)")
		parallel = flag.Int("parallel", runtime.NumCPU(), "number of concurrent simulations")
		out      = flag.String("o", "", "output CSV file (default stdout)")
	)
	flag.Parse()

	// die exits 2 for configuration mistakes (the ConfigError family),
	// as ppc-sim does, and 1 for runtime failures.
	die := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		var cfgErr *ppcsim.ConfigError
		if errors.As(err, &cfgErr) {
			os.Exit(2)
		}
		os.Exit(1)
	}

	if *window < 0 {
		die(&ppcsim.ConfigError{Field: "Window",
			Reason: fmt.Sprintf("must be non-negative, got %d (0 = unlimited)", *window)})
	}
	sp := sweepSpec{hintFrac: *hintFrac, hintAcc: *hintAcc, window: *window}
	if *large != "" {
		tracesSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "traces" {
				tracesSet = true
			}
		})
		if tracesSet {
			die(&ppcsim.ConfigError{Field: "Trace",
				Reason: "-large and -traces are mutually exclusive"})
		}
		spec, err := ppcsim.ParseLargeTraceSpec(*large)
		if err != nil {
			die(&ppcsim.ConfigError{Field: "Trace", Reason: err.Error()})
		}
		sp.large = &spec
	}
	sp.traces = splitList(*traces)
	if len(sp.traces) == 1 && sp.traces[0] == "all" {
		sp.traces = ppcsim.TraceNames
	}
	algNames := splitList(*algs)
	if len(algNames) == 1 && algNames[0] == "all" {
		sp.algs = ppcsim.Algorithms
	} else {
		for _, name := range algNames {
			a, err := ppcsim.ParseAlgorithm(name)
			if err != nil {
				die(err)
			}
			sp.algs = append(sp.algs, a)
		}
	}
	var err error
	if sp.disks, err = splitInts(*disks); err != nil {
		die(err)
	}
	if sp.caches, err = splitInts(*caches); err != nil {
		die(err)
	}
	if sp.batches, err = splitInts(*batches); err != nil {
		die(err)
	}
	if sp.horizons, err = splitInts(*horizons); err != nil {
		die(err)
	}
	for _, s := range splitList(*scheds) {
		d, err := ppcsim.ParseDiscipline(s)
		if err != nil {
			die(err)
		}
		sp.scheds = append(sp.scheds, d)
	}

	jobs, err := sp.jobs()
	if err != nil {
		die(err)
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			die(err)
		}
		defer f.Close()
		w = f
	}
	if err := runSweep(sp, jobs, *parallel, w); err != nil {
		die(err)
	}
}
