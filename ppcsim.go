// Package ppcsim is a disk-accurate, trace-driven simulator of integrated
// parallel prefetching and caching algorithms, reproducing Kimbrel et al.,
// "A Trace-Driven Comparison of Algorithms for Parallel Prefetching and
// Caching" (OSDI 1996).
//
// The library simulates a single fully-hinted process reading a traced
// block sequence from an array of HP 97560-like disks through a shared
// buffer cache, under one of five integrated prefetching-and-caching
// algorithms: optimal demand fetching, fixed horizon (TIP2), multi-disk
// aggressive, reverse aggressive, and forestall.
//
// Quick start:
//
//	tr, _ := ppcsim.NewTrace("postgres-select")
//	res, _ := ppcsim.Run(ppcsim.Options{
//	    Trace:     tr,
//	    Algorithm: ppcsim.Forestall,
//	    Disks:     4,
//	})
//	fmt.Println(res)
package ppcsim

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"ppcsim/internal/disk"
	"ppcsim/internal/engine"
	"ppcsim/internal/policy"
	"ppcsim/internal/revagg"
	"ppcsim/internal/trace"
)

// Trace is a file-access trace: a read sequence with inter-reference
// compute times and a (file, offset) structure for data placement.
type Trace = trace.Trace

// TraceSource is a streaming trace: references arrive in order through
// ReadRefs and only a caller-chosen window is ever resident, so traces
// far larger than memory can be simulated. Obtain one from
// Trace.Source(), OpenColumnarTrace, or LargeTraceSpec.Source(); run it
// with Options.Source. See trace.Source.
type TraceSource = trace.Source

// TraceMeta is the trace-level description a TraceSource carries (name,
// file structure, default cache size, total reference count).
type TraceMeta = trace.Meta

// LargeTraceSpec describes a synthetic streaming trace of arbitrary
// length: references are generated on demand, so a 10^9-reference
// workload costs no memory to produce. See trace.LargeSpec.
type LargeTraceSpec = trace.LargeSpec

// ColumnarTraceFile is an open columnar trace file acting as a
// TraceSource; Close it when done.
type ColumnarTraceFile = trace.FileSource

// OpenColumnarTrace opens a trace file in the columnar binary format
// (see docs/trace-format.md) as a streaming TraceSource.
func OpenColumnarTrace(path string) (*ColumnarTraceFile, error) {
	return trace.OpenColumnarFile(path)
}

// WriteColumnarTrace encodes a trace source in the columnar binary
// format, returning the number of bytes written.
func WriteColumnarTrace(w io.Writer, src TraceSource) (int64, error) {
	return trace.WriteColumnar(w, src)
}

// MaterializeTrace drains a streaming source into a fully resident
// Trace, e.g. to run an offline algorithm (reverse aggressive) over a
// columnar file that fits in memory.
func MaterializeTrace(src TraceSource) (*Trace, error) {
	return trace.Materialize(src)
}

// Result holds the metrics of one simulation run, in the units of the
// paper's appendix tables.
type Result = engine.Result

// Discipline selects the disk-head scheduling policy.
type Discipline = disk.Discipline

// DiskGeometry parameterizes the drive model (seek curve, rotation,
// readahead cache); the paper's drive is the model at HP97560Geometry().
type DiskGeometry = disk.Geometry

// HP97560Geometry returns the parameters of the paper's HP 97560 drive,
// the geometry every run uses unless DiskGeometry or SimpleDiskModel is
// set.
func HP97560Geometry() DiskGeometry { return disk.HP97560Geometry() }

// HintSpec models incomplete or inaccurate application hints: each
// reference is disclosed with probability Fraction and, if disclosed,
// names the correct block with probability Accuracy; Window limits how
// far past the cursor disclosed references are visible (0 = unlimited,
// WindowNone = no future visibility), with eviction falling back to LRU
// beyond the horizon. Blocks with no disclosed next use are likewise
// evicted least recently used first, so Fraction 0 is demand-LRU. The
// paper's fully-hinted case is the nil spec. See engine.HintSpec.
type HintSpec = engine.HintSpec

// WindowNone is the HintSpec.Window value for zero lookahead: the policy
// learns each reference only as the process reaches it.
const WindowNone = engine.WindowNone

// Disk-head scheduling disciplines.
const (
	CSCAN = disk.CSCAN
	FCFS  = disk.FCFS
)

// ErrCanceled marks a run aborted through RunContext's context. The
// returned error also wraps the context's own error, so both
// errors.Is(err, ErrCanceled) and errors.Is(err, context.DeadlineExceeded)
// hold for a timed-out run.
var ErrCanceled = engine.ErrCanceled

// Algorithm names an integrated prefetching and caching policy.
type Algorithm string

// The five algorithms the paper compares.
const (
	// Demand fetches only on a miss but replaces optimally (offline MIN).
	Demand Algorithm = "demand"
	// FixedHorizon fetches missing blocks at most H references ahead
	// (TIP2 restricted to one hinting process).
	FixedHorizon Algorithm = "fixed-horizon"
	// Aggressive prefetches whenever a disk is free, as early as the
	// do-no-harm rule allows.
	Aggressive Algorithm = "aggressive"
	// ReverseAggressive builds a near-optimal offline schedule from the
	// reversed request sequence and replays it.
	ReverseAggressive Algorithm = "reverse-aggressive"
	// Forestall prefetches just early enough to forestall predicted
	// stalls (the paper's new hybrid algorithm).
	Forestall Algorithm = "forestall"
	// DemandLRU is demand fetching with least-recently-used replacement —
	// a conventional hint-less buffer cache. Not part of the paper's
	// comparison; it isolates the value of better-than-LRU replacement.
	DemandLRU Algorithm = "demand-lru"
	// Readahead is sequential readahead with adaptive depth: it detects
	// constant-stride runs in the observed reference stream and prefetches
	// their extrapolation, with LRU replacement. Hint-less; not part of
	// the paper's comparison.
	Readahead Algorithm = "readahead"
	// History is MITHRIL-style history-based prefetching: it mines
	// repeated block associations from the observed reference stream into
	// a bounded table and prefetches a block's supported successors on
	// access, with LRU replacement. Hint-less; not part of the paper's
	// comparison.
	History Algorithm = "history"
)

// Algorithms lists the paper's five algorithms in its order, plus the
// hint-less extension baselines (demand-LRU, readahead, history).
var Algorithms = []Algorithm{Demand, FixedHorizon, Aggressive, ReverseAggressive, Forestall, DemandLRU, Readahead, History}

// TraceNames lists the bundled traces in Table 3 order.
var TraceNames = trace.Names

// NewTrace generates one of the bundled traces by name (see TraceNames).
func NewTrace(name string) (*Trace, error) { return trace.ByName(name) }

// AllTraces generates every bundled trace.
func AllTraces() []*Trace { return trace.All() }

// Options configures one simulation run. Zero values select the paper's
// defaults.
type Options struct {
	// Trace to run; see NewTrace. Exactly one of Trace and Source is
	// required. A run reads the trace's references in place and never
	// writes them, so runs may share one trace concurrently, but the
	// trace must not change while a run is in flight.
	Trace *Trace
	// Source streams the trace instead of materializing it, keeping the
	// engine's resident set bounded regardless of trace length. Streaming
	// runs require Hints with a bounded Window (positive, at most 2^20
	// and smaller than the trace, or WindowNone) — the window is what
	// bounds how much future the policies may consult — and reject the
	// offline reverse aggressive algorithm. Results are byte-identical to
	// running the materialized trace with the same options.
	Source TraceSource
	// Algorithm to simulate. Required.
	Algorithm Algorithm
	// Disks is the array size (default 1).
	Disks int
	// CacheBlocks overrides the trace's default cache size.
	CacheBlocks int
	// Scheduler is the disk-head scheduling discipline (default CSCAN).
	Scheduler Discipline
	// BatchSize overrides aggressive's/forestall's/reverse aggressive's
	// batch size (default: the paper's Table 6 value for the array size).
	BatchSize int
	// Horizon overrides fixed horizon's prefetch horizon H (default 62).
	// It also sets forestall's within-H rule, which is fixed horizon's.
	Horizon int
	// FetchEstimate is reverse aggressive's fixed fetch-time/compute-time
	// ratio F (default 32).
	FetchEstimate float64
	// ForestallFixedF, when positive, replaces forestall's dynamic F
	// estimation with this fixed value.
	ForestallFixedF float64
	// DriverOverheadMs is the per-request driver CPU cost (default
	// 0.5 ms; negative for zero).
	DriverOverheadMs float64
	// SimpleDiskModel swaps the HP 97560 model for a fixed-latency model
	// (used for simulator cross-validation).
	SimpleDiskModel bool
	// DiskGeometry, when non-nil, simulates a custom drive instead of the
	// HP 97560. Takes precedence over SimpleDiskModel.
	DiskGeometry *DiskGeometry
	// PlacementSeed varies the per-file random placement.
	PlacementSeed int64
	// Hints degrades the advance knowledge the policy receives (nil =
	// fully hinted, the paper's setting). Reverse aggressive is offline
	// and requires full hints; combining it with a HintSpec is an error.
	Hints *HintSpec
	// Observer, when non-nil, receives the run's event stream: every
	// reference served, stall, fetch (with its service-time breakdown),
	// eviction, and prefetch batch. nil costs nothing — the simulator
	// skips all event construction. Combine observers with Tee; see
	// Recorder, ChromeTracer, and StreamingStats for built-ins.
	Observer Observer
}

// NewPolicy constructs the named algorithm with the given options.
func NewPolicy(opts Options) (engine.Policy, error) {
	switch opts.Algorithm {
	case Demand:
		return policy.NewDemand(), nil
	case DemandLRU:
		return policy.NewDemandLRU(), nil
	case Readahead:
		return policy.NewReadahead(), nil
	case History:
		return policy.NewHistory(), nil
	case FixedHorizon:
		return policy.NewFixedHorizon(opts.Horizon), nil
	case Aggressive:
		return policy.NewAggressive(opts.BatchSize), nil
	case ReverseAggressive:
		return revagg.New(opts.FetchEstimate, opts.BatchSize), nil
	case Forestall:
		f := policy.NewForestall()
		f.BatchSize = opts.BatchSize
		f.Horizon = opts.Horizon
		f.FixedF = opts.ForestallFixedF
		return f, nil
	default:
		return nil, fmt.Errorf("ppcsim: unknown algorithm %q", opts.Algorithm)
	}
}

// Run executes one simulation and returns its metrics. It validates the
// options first (see Options.Validate); configuration errors are
// *ConfigError values naming the offending field.
func Run(opts Options) (Result, error) { return RunContext(nil, opts) }

// RunContext is Run with cooperative cancellation: when ctx is non-nil,
// the engine polls it periodically (every ~1k event-loop iterations) and
// aborts with an error wrapping both engine.ErrCanceled and ctx.Err()
// once the context is done. A nil or never-canceled context adds no
// measurable cost. Services use it to enforce per-request deadlines on
// long simulations.
func RunContext(ctx context.Context, opts Options) (Result, error) {
	if err := opts.Validate(); err != nil {
		return Result{}, err
	}
	pol, err := NewPolicy(opts)
	if err != nil {
		return Result{}, err
	}
	disks := opts.Disks
	if disks == 0 {
		disks = 1
	}
	cfg := engine.Config{
		Trace:            opts.Trace,
		Source:           opts.Source,
		Policy:           pol,
		Disks:            disks,
		CacheBlocks:      opts.CacheBlocks,
		Discipline:       opts.Scheduler,
		DriverOverheadMs: opts.DriverOverheadMs,
		PlacementSeed:    opts.PlacementSeed,
		Hints:            opts.Hints,
		Observer:         opts.Observer,
		Ctx:              ctx,
	}
	if opts.SimpleDiskModel {
		cfg.Model = func() disk.Model { return disk.NewSimple() }
	}
	if opts.DiskGeometry != nil {
		g := *opts.DiskGeometry // already validated by Options.Validate
		cfg.Model = func() disk.Model {
			m, merr := disk.NewParametric(g)
			if merr != nil {
				panic(merr) // validated above
			}
			return m
		}
	}
	return engine.Run(cfg)
}

// ReverseAggressiveGrid is the parameter grid RunBestReverseAggressive
// sweeps. The zero value selects the appendix-F sweep: fetch estimates
// {2, 3, 4, 8, 16, 32, 64, 128} and batch sizes {4, 8, 16, 40, 80, 160}.
type ReverseAggressiveGrid struct {
	// Estimates are the fetch-time/compute-time ratios F to try.
	Estimates []float64
	// Batches are the batch sizes to try.
	Batches []int
}

// ReverseAggressiveChoice is the (F, batch) pair that won a
// RunBestReverseAggressive sweep.
type ReverseAggressiveChoice struct {
	FetchEstimate float64
	BatchSize     int
}

// RunBestReverseAggressive runs reverse aggressive over a grid of fetch
// estimates and batch sizes and returns the best-elapsed-time result and
// the winning (F, batch) pair, the way the paper's baseline tables choose
// reverse aggressive's parameters ("chosen to minimize its elapsed
// time"). The zero grid selects the appendix-F sweep values. A tie goes
// to the earliest grid point, estimates-major. The grid points run
// concurrently, up to GOMAXPROCS at a time, sharing the read-only trace;
// with an Observer set they run one at a time, so it sees whole runs.
func RunBestReverseAggressive(opts Options, grid ReverseAggressiveGrid) (Result, ReverseAggressiveChoice, error) {
	estimates := grid.Estimates
	if len(estimates) == 0 {
		estimates = []float64{2, 3, 4, 8, 16, 32, 64, 128}
	}
	batches := grid.Batches
	if len(batches) == 0 {
		batches = []int{4, 8, 16, 40, 80, 160}
	}
	// Point i is (estimates[i/nb], batches[i%nb]): estimates-major.
	nb, points := len(batches), len(estimates)*len(batches)
	workers := runtime.GOMAXPROCS(0)
	if opts.Observer != nil {
		workers = 1
	}
	opts.Algorithm = ReverseAggressive
	results := make([]Result, points)
	errs := make([]error, points)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, points); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < points; i = int(next.Add(1) - 1) {
				o := opts
				o.FetchEstimate, o.BatchSize = estimates[i/nb], batches[i%nb]
				results[i], errs[i] = Run(o)
			}
		}()
	}
	wg.Wait()
	best := 0
	for i := range points {
		if errs[i] != nil {
			return Result{}, ReverseAggressiveChoice{}, errs[i]
		}
		if results[i].ElapsedSec < results[best].ElapsedSec {
			best = i
		}
	}
	return results[best], ReverseAggressiveChoice{FetchEstimate: estimates[best/nb], BatchSize: batches[best%nb]}, nil
}
