// Command ppc-sim runs a single prefetching-and-caching simulation and
// prints its metrics.
//
// Usage:
//
//	ppc-sim -trace postgres-select -alg forestall -disks 4
//	ppc-sim -trace synth -alg aggressive -disks 3 -batch 40 -sched fcfs
//	ppc-sim -trace cscope1 -alg forestall -disks 2 -events trace.json -series series.csv
//	ppc-sim -large 1e7:65536:zipf:1 -window 1000 -alg forestall -disks 4
//	ppc-sim -trace-file big.col -stream -window 1000 -alg aggressive
//
// Exit status: 0 on success, 2 for an invalid configuration (unknown
// trace or algorithm, non-positive -disks or -cache, and anything else
// ppcsim reports as a ConfigError), 1 for runtime failures.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"ppcsim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process edges injected, so the table tests in
// main_test.go can drive the full flag-to-exit-status path in process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ppc-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		traceName = fs.String("trace", "synth", "trace name (see ppc-traces for the list)")
		traceFile = fs.String("trace-file", "", "columnar trace file to run instead of a bundled trace (see ppc-traces convert)")
		largeSpec = fs.String("large", "", "stream a synthetic trace refs[:blocks[:pattern[:seed]]] (pattern: loop or zipf), e.g. 1e7:65536:zipf:1; requires -window")
		stream    = fs.Bool("stream", false, "run through the streaming engine (bounded memory; requires -window; implied by -large)")
		alg       = fs.String("alg", "forestall", "algorithm: "+algorithmList())
		disks     = fs.Int("disks", 1, "number of disks in the array")
		cacheBlk  = fs.Int("cache", 0, "cache size in 8K blocks (0 = trace default)")
		sched     = fs.String("sched", "cscan", "disk-head scheduling: cscan or fcfs")
		batch     = fs.Int("batch", 0, "batch size for aggressive/forestall/reverse-aggressive (0 = paper default)")
		horizon   = fs.Int("horizon", 0, "prefetch horizon H for fixed-horizon/forestall (0 = 62)")
		festimate = fs.Float64("f", 0, "reverse aggressive's fetch time estimate F (0 = 32)")
		fixedF    = fs.Float64("forestall-f", 0, "fix forestall's F' instead of dynamic estimation")
		window    = fs.Int("window", 0, "lookahead window in references (unset = unlimited hints)")
		hintFrac  = fs.Float64("hint-fraction", 1, "fraction of references disclosed as hints")
		hintAcc   = fs.Float64("hint-accuracy", 1, "probability a disclosed hint names the right block")
		hintSeed  = fs.Int64("hint-seed", 0, "seed for hint disclosure/corruption draws")
		overhead  = fs.Float64("driver-ms", 0, "driver overhead per request in ms (0 = 0.5, negative = none)")
		simple    = fs.Bool("simple-disk", false, "use the simplified fixed-latency disk model")
		seed      = fs.Int64("seed", 0, "data placement seed")
		cpuScale  = fs.Float64("cpu-scale", 1, "scale all compute times (0.5 = double-speed CPU)")
		perDisk   = fs.Bool("per-disk", false, "print a per-disk breakdown")
		events    = fs.String("events", "", "write Chrome trace-event JSON to this file (view in chrome://tracing or ui.perfetto.dev)")
		series    = fs.String("series", "", "write per-disk time-series CSV (queue depth, utilization, cache occupancy, stalls) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// fail maps errors to exit codes: configuration mistakes (the
	// ConfigError family) exit 2 so scripts can tell bad invocations from
	// runtime failures, which exit 1.
	fail := func(err error) int {
		fmt.Fprintln(stderr, "ppc-sim:", err)
		var cfgErr *ppcsim.ConfigError
		if errors.As(err, &cfgErr) {
			return 2
		}
		return 1
	}

	// The library treats zero Disks/CacheBlocks as "use the default", so
	// an explicit -disks 0 or -cache 0 would otherwise be silently
	// reinterpreted instead of rejected. Catch explicit non-positive
	// values at the flag boundary.
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if explicit["disks"] && *disks <= 0 {
		return fail(&ppcsim.ConfigError{Field: "Disks",
			Reason: fmt.Sprintf("must be positive, got %d", *disks)})
	}
	if explicit["cache"] && *cacheBlk <= 0 {
		return fail(&ppcsim.ConfigError{Field: "CacheBlocks",
			Reason: fmt.Sprintf("must be positive, got %d", *cacheBlk)})
	}
	// The library's HintSpec uses Window 0 for "unlimited" and -1 for "no
	// lookahead"; at the CLI, absent means unlimited and anything explicit
	// must be a positive reference count or -1 for no lookahead.
	if explicit["window"] && (*window == 0 || *window < -1) {
		return fail(&ppcsim.ConfigError{Field: "Window",
			Reason: fmt.Sprintf("must be positive or -1 for no lookahead, got %d (omit the flag for unlimited lookahead)", *window)})
	}
	if *largeSpec != "" && *traceFile != "" {
		return fail(&ppcsim.ConfigError{Field: "Trace", Reason: "-large and -trace-file are mutually exclusive"})
	}
	if (*largeSpec != "" || *traceFile != "") && explicit["trace"] {
		return fail(&ppcsim.ConfigError{Field: "Trace", Reason: "-trace cannot be combined with -large or -trace-file"})
	}

	// Resolve the workload: a streaming source (-large, or -stream over a
	// file/bundled trace) or a materialized trace.
	var tr *ppcsim.Trace
	var src ppcsim.TraceSource
	var totalRefs int64
	switch {
	case *largeSpec != "":
		spec, err := ppcsim.ParseLargeTraceSpec(*largeSpec)
		if err != nil {
			return fail(&ppcsim.ConfigError{Field: "Trace", Reason: err.Error()})
		}
		s, err := spec.Source()
		if err != nil {
			return fail(&ppcsim.ConfigError{Field: "Trace", Reason: err.Error()})
		}
		src = s
	case *traceFile != "":
		f, err := ppcsim.OpenColumnarTrace(*traceFile)
		if err != nil {
			return fail(&ppcsim.ConfigError{Field: "Trace", Reason: err.Error()})
		}
		defer f.Close()
		if *stream {
			src = f
		} else if tr, err = ppcsim.MaterializeTrace(f); err != nil {
			return fail(&ppcsim.ConfigError{Field: "Trace", Reason: err.Error()})
		}
	default:
		var err error
		if tr, err = ppcsim.NewTrace(*traceName); err != nil {
			return fail(&ppcsim.ConfigError{Field: "Trace", Reason: err.Error()})
		}
		if *stream {
			src = tr.Source()
			tr = nil
		}
	}
	if src != nil {
		if *cpuScale != 1 { //ppcvet:ignore flag-default sentinel, parsed rather than computed
			return fail(&ppcsim.ConfigError{Field: "CPUScale", Reason: "-cpu-scale requires a materialized trace"})
		}
		totalRefs = src.Meta().Refs
	} else {
		if *cpuScale != 1 { //ppcvet:ignore flag-default sentinel, parsed rather than computed
			tr = tr.ScaleCompute(*cpuScale)
		}
		totalRefs = int64(len(tr.Refs))
	}
	algorithm, err := ppcsim.ParseAlgorithm(*alg)
	if err != nil {
		return fail(err)
	}
	discipline, err := ppcsim.ParseDiscipline(*sched)
	if err != nil {
		return fail(err)
	}
	opts := ppcsim.Options{
		Trace:            tr,
		Source:           src,
		Algorithm:        algorithm,
		Disks:            *disks,
		CacheBlocks:      *cacheBlk,
		Scheduler:        discipline,
		BatchSize:        *batch,
		Horizon:          *horizon,
		FetchEstimate:    *festimate,
		ForestallFixedF:  *fixedF,
		DriverOverheadMs: *overhead,
		SimpleDiskModel:  *simple,
		PlacementSeed:    *seed,
	}
	if *window != 0 || *hintFrac != 1 || *hintAcc != 1 { //ppcvet:ignore flag-default sentinels, parsed rather than computed
		opts.Hints = &ppcsim.HintSpec{
			Fraction: *hintFrac,
			Accuracy: *hintAcc,
			Seed:     *hintSeed,
			Window:   *window,
		}
	}

	// Validate before opening the output files, so a rejected invocation
	// leaves existing -events and -series files untouched.
	if err := opts.Validate(); err != nil {
		return fail(err)
	}

	// Attach observers only when an export was requested, so the default
	// invocation keeps the unobserved fast path. Output files are opened
	// up front so a bad path fails before the simulation, not after.
	var (
		tracer   *ppcsim.ChromeTracer
		recorder *ppcsim.Recorder
		stats    *ppcsim.StreamingStats
		eventsF  *os.File
		seriesF  *os.File
	)
	if *events != "" {
		f, err := os.Create(*events)
		if err != nil {
			return fail(err)
		}
		eventsF = f
		tracer = ppcsim.NewChromeTracer()
	}
	if *series != "" {
		f, err := os.Create(*series)
		if err != nil {
			return fail(err)
		}
		seriesF = f
		recorder = ppcsim.NewRecorder()
	}
	if tracer != nil || recorder != nil {
		stats = ppcsim.NewStreamingStats()
		opts.Observer = ppcsim.Tee(tracer, recorder, stats)
	}

	start := time.Now() //ppcvet:ignore wall-clock throughput report (refs/sec), not simulation time
	res, err := ppcsim.Run(opts)
	if err != nil {
		return fail(err)
	}
	wall := time.Since(start) //ppcvet:ignore wall-clock throughput report (refs/sec), not simulation time
	fmt.Fprintln(stdout, res)
	fmt.Fprintf(stdout, "  fetches:            %d\n", res.Fetches)
	fmt.Fprintf(stdout, "  elapsed time (sec): %.3f\n", res.ElapsedSec)
	fmt.Fprintf(stdout, "  compute time (sec): %.3f\n", res.ComputeSec)
	fmt.Fprintf(stdout, "  driver time (sec):  %.3f\n", res.DriverTimeSec)
	fmt.Fprintf(stdout, "  stall time (sec):   %.3f\n", res.StallTimeSec)
	fmt.Fprintf(stdout, "  avg fetch (msec):   %.3f\n", res.AvgFetchMs)
	fmt.Fprintf(stdout, "  avg response (ms):  %.3f\n", res.AvgResponseMs)
	fmt.Fprintf(stdout, "  avg disk util:      %.2f\n", res.AvgUtilization)
	if secs := wall.Seconds(); secs > 0 {
		fmt.Fprintf(stdout, "  refs/sec (wall):    %.0f\n", float64(totalRefs)/secs)
	}
	if res.Latency != nil {
		l := res.Latency
		fmt.Fprintf(stdout, "  fetch latency (ms): p50 %.3f  p95 %.3f  p99 %.3f  (n=%d)\n",
			l.FetchP50Ms, l.FetchP95Ms, l.FetchP99Ms, l.FetchCount)
		fmt.Fprintf(stdout, "  stall length (ms):  p50 %.3f  p95 %.3f  p99 %.3f  (n=%d)\n",
			l.StallP50Ms, l.StallP95Ms, l.StallP99Ms, l.StallCount)
	}
	if *perDisk {
		for i, d := range res.PerDisk {
			fmt.Fprintf(stdout, "  disk %2d: fetches %6d  busy %8.3fs  svc %7.3fms  resp %7.3fms  util %.2f\n",
				i, d.Fetches, d.BusySec, d.AvgFetchMs, d.AvgRespMs, d.Utilization)
		}
	}

	if tracer != nil {
		if _, err := tracer.WriteTo(eventsF); err != nil {
			return fail(err)
		}
		if err := eventsF.Close(); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "  wrote trace events: %s\n", *events)
	}
	if recorder != nil {
		if err := recorder.WriteCSV(seriesF); err != nil {
			return fail(err)
		}
		if err := seriesF.Close(); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "  wrote time series:  %s\n", *series)
	}
	return 0
}

// algorithmList names every algorithm ppcsim runs, for the -alg help.
func algorithmList() string {
	names := make([]string, len(ppcsim.Algorithms))
	for i, a := range ppcsim.Algorithms {
		names[i] = string(a)
	}
	return strings.Join(names, ", ")
}
