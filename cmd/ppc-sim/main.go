// Command ppc-sim runs a single prefetching-and-caching simulation and
// prints its metrics.
//
// Usage:
//
//	ppc-sim -trace postgres-select -alg forestall -disks 4
//	ppc-sim -trace synth -alg aggressive -disks 3 -batch 40 -sched fcfs
//	ppc-sim -trace cscope1 -alg forestall -disks 2 -events trace.json -series series.csv
//	ppc-sim -large 1e7:65536:zipf:1 -window 1000 -alg forestall -disks 4
//	ppc-sim -trace-file big.col -window 1000 -alg aggressive
//
// The flags become a serve.RunSpec, the body POST /v1/run takes, so a
// run is defaulted and checked exactly as on the wire. An absent flag is
// an absent field. The source decides whether a run streams: a bundled
// -trace is materialized, while -large (trace_spec) and -trace-file
// (trace_hash, resolved to the local file) stream, so they need -window
// and an online algorithm.
//
// Exit status: 0 on success, 2 for an invalid configuration (anything
// reported as a ppcsim.ConfigError), 1 for runtime failures.
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
	"ppcsim/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process edges injected, so the table tests in
// main_test.go can drive the full flag-to-exit-status path in process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ppc-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var spec serve.RunSpec
	var (
		traceName = fs.String("trace", "synth", "trace name (see ppc-traces for the list)")
		traceFile = fs.String("trace-file", "", "stream this columnar trace file instead of a bundled trace (see ppc-traces convert); requires -window")
		largeSpec = fs.String("large", "", "stream a synthetic trace refs[:blocks[:pattern[:seed]]] (pattern: loop or zipf), e.g. 1e7:65536:zipf:1; requires -window")
		disks     = fs.Int("disks", 1, "number of disks in the array")
		cacheBlk  = fs.Int("cache", 0, "cache size in 8K blocks (unset = trace default)")
		window    = fs.Int("window", 0, "lookahead window in references (unset = unlimited hints)")
		hintFrac  = fs.Float64("hint-fraction", 1, "fraction of references disclosed as hints")
		hintAcc   = fs.Float64("hint-accuracy", 1, "probability a disclosed hint names the right block")
		hintSeed  = fs.Int64("hint-seed", 0, "seed for hint disclosure/corruption draws")
		perDisk   = fs.Bool("per-disk", false, "print a per-disk breakdown")
		events    = fs.String("events", "", "write Chrome trace-event JSON to this file (view in chrome://tracing or ui.perfetto.dev)")
		series    = fs.String("series", "", "write per-disk time-series CSV (queue depth, utilization, cache occupancy, stalls) to this file")
	)
	fs.StringVar(&spec.Algorithm, "alg", "forestall", "algorithm: "+algorithmList())
	fs.StringVar(&spec.Scheduler, "sched", "cscan", "disk-head scheduling: cscan or fcfs")
	fs.IntVar(&spec.BatchSize, "batch", 0, "batch size for aggressive/forestall/reverse-aggressive (0 = paper default)")
	fs.IntVar(&spec.Horizon, "horizon", 0, "prefetch horizon H for fixed-horizon/forestall (0 = 62)")
	fs.Float64Var(&spec.FetchEstimate, "f", 0, "reverse aggressive's fetch time estimate F (0 = 32)")
	fs.Float64Var(&spec.ForestallFixedF, "forestall-f", 0, "fix forestall's F' instead of dynamic estimation")
	fs.Float64Var(&spec.DriverOverheadMs, "driver-ms", 0, "driver overhead per request in ms (0 = 0.5, negative = none)")
	fs.BoolVar(&spec.SimpleDiskModel, "simple-disk", false, "use the simplified fixed-latency disk model")
	fs.Int64Var(&spec.PlacementSeed, "seed", 0, "data placement seed")
	fs.Float64Var(&spec.CPUScale, "cpu-scale", 1, "scale all compute times (0.5 = double-speed CPU)")
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

	// What follows are the flag spellings the wire cannot carry. Every
	// rule about the values is RunSpec's. -trace has a default, so it
	// names the source when given, or when no other source is.
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "trace":
			spec.Trace = *traceName
		case "disks":
			spec.Disks = disks
		case "cache":
			spec.CacheBlocks = cacheBlk
		case "window":
			spec.Window = window
		}
	})
	if *largeSpec == "" && *traceFile == "" {
		spec.Trace = *traceName
	}
	// On the wire, cpu_scale 0 means unset; here it is an explicit 0.
	if spec.CPUScale == 0 { //ppcvet:ignore flag value, parsed rather than computed
		return fail(&ppcsim.ConfigError{Field: "CPUScale", Reason: "must be positive, got 0"})
	}
	// The hint flags have defaults, and -hint-seed reaches the hints
	// whenever any hint setting is given.
	if spec.Window != nil || *hintFrac != 1 || *hintAcc != 1 { //ppcvet:ignore flag-default sentinels, parsed rather than computed
		spec.Hints = &serve.Hints{Fraction: *hintFrac, Accuracy: *hintAcc, Seed: *hintSeed}
	}
	env := serve.SourceEnv{LoadTrace: ppcsim.NewTrace}
	if *largeSpec != "" {
		var err error
		if spec.TraceSpec, err = serve.ParseTraceSpec(*largeSpec); err != nil {
			return fail(err)
		}
	}
	if *traceFile != "" {
		tf, err := serve.HashTraceFile(*traceFile)
		if err != nil {
			return fail(err)
		}
		spec.TraceHash, env.OpenHash = tf.Hash, tf.OpenHash
	}

	// Validate and build before opening the output files, so a rejected
	// invocation leaves existing -events and -series files untouched.
	if err := spec.Validate(); err != nil {
		return fail(err)
	}
	opts, cleanup, err := spec.BuildOptions(env)
	if err != nil {
		return fail(err)
	}
	defer cleanup()
	var totalRefs int64
	if opts.Source != nil {
		totalRefs = opts.Source.Meta().Refs
	} else {
		totalRefs = int64(len(opts.Trace.Refs))
	}

	// Attach observers only when an export was requested, so the default
	// invocation keeps the unobserved fast path. Output files are opened
	// up front so a bad path fails before the simulation, not after.
	var (
		tracer   *ppcsim.ChromeTracer
		recorder *ppcsim.Recorder
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
		opts.Observer = ppcsim.Tee(tracer, recorder, ppcsim.NewStreamingStats())
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
