// Package engine implements the paper's trace-driven simulator: a single
// fully-hinted process consuming a read trace, an array of independently
// scheduled disks, a shared buffer cache with advance knowledge, and a
// pluggable integrated prefetching-and-caching policy.
//
// The simulation is event driven. Between references the process computes
// for the traced inter-reference CPU time; every disk request charges a
// driver overhead (0.5 ms by default, "typical of the DECstation
// 5000/200") to the process's CPU timeline; referencing an unavailable
// block stalls the process until the block arrives. Elapsed time therefore
// decomposes exactly as in the paper's figures: compute + driver + stall.
package engine

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/bits"
	"math/rand"

	"ppcsim/internal/cache"
	"ppcsim/internal/disk"
	"ppcsim/internal/future"
	"ppcsim/internal/layout"
	"ppcsim/internal/obs"
	"ppcsim/internal/trace"
)

// DefaultDriverOverheadMs is the per-request I/O driver CPU cost.
const DefaultDriverOverheadMs = 0.5

// Policy is an integrated prefetching and caching algorithm. The engine
// calls Attach once, then Poll at every decision point (after each served
// reference and after each disk completion), and OnStall when the process
// is blocked on a block that no in-flight fetch will deliver — the policy
// must then issue a fetch for that block.
type Policy interface {
	Name() string
	Attach(s *State)
	Poll()
	OnStall(b layout.BlockID)
}

// Config describes one simulation run.
type Config struct {
	// Trace is read in place and never written: it must not change while
	// the run is in flight.
	Trace *trace.Trace
	// Source, when set instead of Trace, streams the reference sequence:
	// the engine keeps only a bounded ring of upcoming references
	// resident, so traces of 10^9 references run in constant memory.
	// Streaming runs require Hints with a bounded Window (the resident
	// ring is sized from it) and reject policies that declare
	// RequiresFullTrace. Trace and Source are mutually exclusive.
	Source           trace.Source
	Policy           Policy
	Disks            int
	CacheBlocks      int               // 0 → trace default
	Discipline       disk.Discipline   // CSCAN by default
	Model            func() disk.Model // nil → disk.NewHP97560
	DriverOverheadMs float64           // <0 → 0; 0 → default
	PlacementSeed    int64             // seed for per-file placement
	// Hints degrades the advance knowledge the policy receives; nil means
	// the paper's fully-hinted case.
	Hints *HintSpec
	// Observer receives the run's event stream (see package obs). When
	// nil — the default — every emission point reduces to one nil check,
	// so an unobserved run pays nothing.
	Observer obs.Observer
	// Ctx, when non-nil, cancels the run cooperatively: the event loop
	// polls Ctx.Done() each iteration and aborts with Ctx.Err() wrapped
	// in ErrCanceled. A nil Ctx costs one nil check per iteration; a set
	// one adds a non-blocking channel poll, cheap next to the disk-model
	// and heap work an iteration already does. The guarantee is that a
	// done context stops the run at the next iteration boundary; how
	// quickly a live timer MAKES the context done is up to the Go
	// runtime (a CPU-bound loop can delay timer delivery until async
	// preemption, ~10ms), so sub-10ms deadlines may resolve only after
	// short runs complete.
	Ctx context.Context
}

// ErrCanceled wraps the context error of a run aborted through
// Config.Ctx; test with errors.Is(err, engine.ErrCanceled).
var ErrCanceled = fmt.Errorf("engine: run canceled")

// HintSpec models incomplete or inaccurate application hints — the
// generalization the paper's section 6 leaves open ("we have not
// considered the effects of incomplete or inaccurate hints"). Each
// reference is disclosed to the policy with probability Fraction; a
// disclosed reference names the wrong block with probability
// 1 - Accuracy. Undisclosed references are invisible to the policy until
// the process reaches them (they surface as demand misses). The policy
// still observes all *past* accesses through State.Observed, as any real
// system would. Cached blocks with no disclosed next use are evicted
// least recently used first, so Fraction 0 replaces exactly as
// demand-LRU does.
type HintSpec struct {
	// Fraction of references disclosed, in [0, 1]. 1 = fully hinted.
	Fraction float64
	// Accuracy of a disclosed hint, in [0, 1]. 1 = always correct.
	Accuracy float64
	// Seed drives the disclosure and corruption draws.
	Seed int64
	// Window limits lookahead: a positive W lets the policy see disclosed
	// references only inside [cursor, cursor+W), with eviction falling
	// back to LRU order for blocks whose next use lies beyond that
	// horizon. 0 (the zero value) means unlimited lookahead — the paper's
	// full-knowledge setting — and WindowNone means no future visibility
	// at all. A window covering the whole trace (W >= len(refs)) is
	// information-equivalent to unlimited and is treated as such.
	Window int
}

// WindowNone is the HintSpec.Window value for zero lookahead: the policy
// learns each reference only when the process reaches it. (0 could not
// mean this, because the zero-value HintSpec must equal the fully-hinted
// default.)
const WindowNone = -1

// Validate checks the spec's ranges.
func (h *HintSpec) Validate() error {
	// Written so that NaN, for which every comparison is false, fails.
	if !(h.Fraction >= 0 && h.Fraction <= 1) {
		return fmt.Errorf("engine: hint fraction %g out of [0,1]", h.Fraction)
	}
	if !(h.Accuracy >= 0 && h.Accuracy <= 1) {
		return fmt.Errorf("engine: hint accuracy %g out of [0,1]", h.Accuracy)
	}
	if h.Window < WindowNone {
		return fmt.Errorf("engine: hint window %d invalid (0 = unlimited, %d = none, positive = lookahead)", h.Window, WindowNone)
	}
	return nil
}

// hintNoiser draws the disclosure/corruption noise of a HintSpec one
// reference at a time. The noise is a pure function of (Seed, Fraction,
// Accuracy) and the trace position — Window deliberately plays no part,
// so sliding the lookahead horizon changes when a hint becomes visible
// but never re-rolls whether it is disclosed or corrupted; and because
// the draws happen in trace order, a streaming run consumes the exact
// same sequence a materialized run does.
type hintNoiser struct {
	rng     *rand.Rand
	h       *HintSpec
	phantom layout.BlockID
	nBlocks int
}

func newHintNoiser(h *HintSpec, phantom layout.BlockID, nBlocks int) *hintNoiser {
	return &hintNoiser{
		rng:     rand.New(rand.NewSource(h.Seed ^ 0x70636873)), // "pchs"
		h:       h,
		phantom: phantom,
		nBlocks: nBlocks,
	}
}

// draw returns the disclosed block for the next non-write reference whose
// true block is b. Write positions must not be drawn for (they are always
// disclosed as phantom without consuming randomness).
func (nz *hintNoiser) draw(b layout.BlockID) layout.BlockID {
	switch {
	case nz.rng.Float64() >= nz.h.Fraction:
		return nz.phantom
	case nz.rng.Float64() >= nz.h.Accuracy:
		// An inaccurate hint must name a wrong block: draw from the
		// other nBlocks-1 blocks and shift past the true one (a plain
		// Intn(nBlocks) would be correct by accident 1/nBlocks of the
		// time, skewing the realized accuracy).
		if nz.nBlocks > 1 {
			w := nz.rng.Intn(nz.nBlocks - 1)
			if w >= int(b) {
				w++
			}
			return layout.BlockID(w)
		}
		return nz.phantom
	default:
		return b
	}
}

// Result reports the metrics of one run in the units of the paper's
// appendix tables.
type Result struct {
	Trace      string
	Policy     string
	Disks      int
	Discipline disk.Discipline

	Fetches       int64
	DriverTimeSec float64
	StallTimeSec  float64
	ElapsedSec    float64
	ComputeSec    float64
	AvgFetchMs    float64
	// AvgResponseMs is the mean request response time (queueing plus
	// service) across all disks.
	AvgResponseMs float64
	// AvgUtilization is the mean fraction of elapsed time each disk spent
	// servicing requests.
	AvgUtilization float64
	CacheHits      int64
	CacheMisses    int64
	// WriteRequests counts write-behind disk requests (zero for the
	// paper's read-only traces).
	WriteRequests int64
	// PerDisk breaks the I/O metrics down by array slot.
	PerDisk []DiskResult
	// Latency summarizes the fetch-latency and stall-duration
	// distributions. It is populated only when a *obs.StreamingStats
	// observer is attached to the run (directly or inside an obs.Tee);
	// otherwise it is nil.
	Latency *LatencySummary
}

// LatencySummary reports streaming-histogram percentiles of per-request
// fetch latency (queueing plus service) and per-stall duration.
type LatencySummary struct {
	FetchCount  int64
	FetchMeanMs float64
	FetchP50Ms  float64
	FetchP95Ms  float64
	FetchP99Ms  float64
	StallCount  int64
	StallMeanMs float64
	StallP50Ms  float64
	StallP95Ms  float64
	StallP99Ms  float64
}

// DiskResult is one drive's share of a Result.
type DiskResult struct {
	Fetches     int64
	BusySec     float64
	AvgFetchMs  float64
	AvgRespMs   float64
	Utilization float64
}

// String renders a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("%s/%s d=%d %s: elapsed %.3fs (cpu %.3f + driver %.3f + stall %.3f), %d fetches, %.3f ms/fetch, util %.2f",
		r.Trace, r.Policy, r.Disks, r.Discipline,
		r.ElapsedSec, r.ComputeSec, r.DriverTimeSec, r.StallTimeSec,
		r.Fetches, r.AvgFetchMs, r.AvgUtilization)
}

// State is the view of the running simulation a policy operates on.
//
// Refs is the *disclosed* reference sequence: under a HintSpec it may
// differ from the true one (undisclosed positions point at a phantom
// block that is permanently present, so policies naturally skip them;
// inaccurate positions name the wrong block). Without hints it is the
// true sequence. The Oracle answers next-use queries over the disclosed
// sequence — that is exactly the knowledge the application shared.
//
// Policies must index the sequence through Ref, not Refs directly: in a
// streaming run (Config.Source) the reference columns are rings holding
// only a bounded window of positions around the cursor, and Ref masks
// the position into its ring slot. In a materialized run the mask is -1,
// so Ref(i) reads Refs[i] with zero overhead.
type State struct {
	Refs   []layout.BlockID
	Layout *layout.Layout
	Oracle *future.Oracle
	Cache  *cache.Cache
	Drives []*disk.Drive

	// refs holds the true references: in a materialized run it is the
	// caller's Trace.Refs itself, read in place and never written; in a
	// streaming run it is a ring that load fills.
	refs   []trace.Ref
	writes int64

	// The reference columns (Refs and refs) hold the whole trace in a
	// materialized run (mask = -1, a no-op) and a power-of-two ring in a
	// streaming one; mask folds a position into its slot. n is the trace
	// length and filled counts the references loaded so far. src is nil
	// for materialized runs; a streaming run pulls from it through
	// srcBuf, and fill keeps the ring primed ahead positions past the
	// cursor.
	src    trace.Source
	srcBuf []trace.Ref
	srcI   int
	srcN   int
	mask   int
	n      int
	filled int
	ahead  int
	// phantom (block id NumBlocks) stands in for references the policy
	// must not act on: undisclosed hints and write-behind updates. It
	// exists, pinned present, when blockSpace includes it — in hinted
	// runs and in runs with writes. noiser is nil without hints.
	phantom      layout.BlockID
	blockSpace   int
	noiser       *hintNoiser
	totalCompute float64
	traceName    string
	policyName   string

	now float64
	// processAt is the time the process will issue its next reference
	// (start-of-stall time once it arrives there).
	processAt float64
	stalled   bool

	afterMiss bool
	driverMs  float64
	overhead  float64
	fetches   int64
	// inFlightN counts outstanding fetches; the cache records which
	// blocks they are.
	inFlightN int
	issueErr  error

	// busyEnds mirrors each drive's in-service completion time (+Inf when
	// idle) in one contiguous slice, refreshed after every enqueue and
	// completion. The run loop's next-completion lookup and the policies'
	// free-disk tests read it instead of chasing per-drive pointers.
	// minBusyIdx/minBusyEnd cache the scan the run loop used to do every
	// iteration: the earliest completion, lowest disk index first on
	// ties (-1/+Inf when every drive is idle).
	busyEnds   []float64
	minBusyIdx int
	minBusyEnd float64
	idleDrives int

	// reqFree recycles disk.Request values: a request retires when its
	// drive completes it, so the engine reuses it for a later fetch
	// instead of allocating one per disk access.
	reqFree []*disk.Request

	// dindex is the per-disk position index shared by the policies (see
	// DiskIndex); advanceCursor pops consumed positions from it.
	dindex *future.DiskIndex

	// Observability. obs is nil for unobserved runs; every emission
	// point is behind a nil check. batchIssued counts the fetches issued
	// per disk within one policy invocation, to emit batch-formation
	// events; stallStart is the begin time of the current stall; breakdowns
	// carries each in-service request's service-time decomposition from
	// start to completion (kept out of disk.Request so the unobserved fast
	// path allocates smaller requests).
	obs         obs.Observer
	batchIssued []int
	stallStart  float64
	breakdowns  map[*disk.Request]disk.Breakdown

	// window is the effective lookahead limit: 0 = unlimited (the paper's
	// full-knowledge case, including windows clamped for covering the
	// whole trace), WindowNone = no future visibility, W > 0 = the policy
	// sees disclosed references in [cursor, cursor+W) only.
	window int

	// OnComplete, if set by the policy in Attach, is invoked after every
	// disk completion with the disk index and modeled service time.
	// Forestall uses it to track recent disk access times.
	OnComplete func(disk int, serviceMs float64)
}

// Now returns the current simulation time in ms.
func (s *State) Now() float64 { return s.now }

// Cursor returns the index of the next reference to be consumed.
func (s *State) Cursor() int { return s.Oracle.Cursor() }

// Len returns the trace length.
func (s *State) Len() int { return s.n }

// Ref returns the disclosed block at position i. In a streaming run only
// a bounded window of positions is resident; policies stay inside it by
// construction (they scan at most WindowLimit positions ahead, and the
// engine fills strictly past that horizon).
func (s *State) Ref(i int) layout.BlockID { return s.Refs[i&s.mask] }

// trueRef returns the block actually referenced at position i (ring slot
// in streaming runs).
func (s *State) trueRef(i int) layout.BlockID { return s.refs[i&s.mask].Block }

// writeAt reports whether position i is a write-behind update.
func (s *State) writeAt(i int) bool { return s.refs[i&s.mask].Write }

// DiskOf returns the disk holding block b.
func (s *State) DiskOf(b layout.BlockID) int { return s.Layout.Lookup(b).Disk }

// DriveFree reports whether drive i has no request outstanding. It is
// equivalent to Drives[i].Outstanding() == 0 but reads the contiguous
// busy-end mirror, so per-disk polling loops stay cheap.
func (s *State) DriveFree(i int) bool { return s.busyEnds[i] > math.MaxFloat64 }

// AnyDriveFree reports whether at least one drive has no request
// outstanding, without scanning the array.
func (s *State) AnyDriveFree() bool { return s.idleDrives > 0 }

// refreshDrive re-mirrors drive i's completion time after an enqueue or
// completion changed its service state, and maintains the cached
// earliest-completion minimum.
func (s *State) refreshDrive(i int) {
	be := math.Inf(1)
	if d := s.Drives[i]; d.Busy() {
		be = d.BusyEnd()
	}
	if wasIdle, isIdle := s.busyEnds[i] > math.MaxFloat64, be > math.MaxFloat64; wasIdle != isIdle {
		if isIdle {
			s.idleDrives++
		} else {
			s.idleDrives--
		}
	}
	s.busyEnds[i] = be
	switch {
	case i == s.minBusyIdx:
		// The minimum itself moved (completion started a queued request,
		// or the drive went idle); rescan.
		s.rescanBusy()
	case be < s.minBusyEnd || (be == s.minBusyEnd && i < s.minBusyIdx): //ppcvet:ignore bit-exact tie-break over copied busy ends, mirrors rescanBusy's linear scan
		// A linear scan would now stop at i first.
		s.minBusyIdx, s.minBusyEnd = i, be
	}
}

// rescanBusy recomputes the earliest completion: the first drive with a
// strictly smaller busy end wins, matching a left-to-right linear scan.
func (s *State) rescanBusy() {
	s.minBusyIdx, s.minBusyEnd = -1, math.Inf(1)
	for i, be := range s.busyEnds {
		if be < s.minBusyEnd {
			s.minBusyIdx, s.minBusyEnd = i, be
		}
	}
}

// DiskIndex returns the per-disk index of the disclosed reference
// sequence. A streaming run threads each position into it as fill loads
// it; a materialized run builds it on first use, so runs whose policy
// never asks do not pay for it. Positions referencing the phantom block
// (undisclosed hints, write-behind updates) are excluded — the phantom
// is pinned present and has no placement.
func (s *State) DiskIndex() *future.DiskIndex {
	if s.dindex == nil {
		s.dindex = future.NewDiskIndex(s.Refs, len(s.Drives), s.indexedDisk)
		s.popDiskIndex(0, s.Cursor())
	}
	return s.dindex
}

// indexedDisk returns the disk of disclosed block b, or -1 for the
// phantom, which the disk index excludes.
func (s *State) indexedDisk(b layout.BlockID) int {
	if b == s.phantom {
		return -1
	}
	return s.DiskOf(b)
}

// popDiskIndex pops the consumed positions [from, to) from the disk
// index.
func (s *State) popDiskIndex(from, to int) {
	for p := from; p < to; p++ {
		if d := s.indexedDisk(s.Ref(p)); d >= 0 {
			s.dindex.AdvancePast(p, d)
		}
	}
}

// newRequest returns a zeroed request, reusing a retired one when
// available.
func (s *State) newRequest() *disk.Request {
	if n := len(s.reqFree); n > 0 {
		r := s.reqFree[n-1]
		s.reqFree = s.reqFree[:n-1]
		*r = disk.Request{}
		return r
	}
	return &disk.Request{}
}

// recycleRequest returns a completed request to the free list. The caller
// must not touch r afterwards.
func (s *State) recycleRequest(r *disk.Request) {
	s.reqFree = append(s.reqFree, r)
}

// ComputeMs returns the inter-reference CPU time that precedes reference i.
func (s *State) ComputeMs(i int) float64 { return s.refs[i&s.mask].ComputeMs }

// WindowLimit clamps a policy's scan limit (an exclusive upper position
// bound) to the lookahead horizon cursor+W. With unlimited lookahead it
// returns limit unchanged; with WindowNone the horizon is the cursor
// itself, so scanning loops see no future at all.
func (s *State) WindowLimit(limit int) int {
	if s.window == 0 {
		return limit
	}
	if horizon := s.Oracle.Cursor() + max(s.window, 0); horizon < limit {
		return horizon
	}
	return limit
}

// NoteAssociationHit reports that a block fetched on a mined association
// (the history policy) was subsequently referenced: trigger is the block
// whose access caused the prefetch, block the prefetched block, and lag
// the number of references between prefetch and use. It forwards to the
// observer and is free when the run is unobserved.
func (s *State) NoteAssociationHit(trigger, block layout.BlockID, lag int) {
	if s.obs != nil {
		s.obs.AssociationHit(obs.AssocEvent{
			TMs: s.now, Trigger: int64(trigger), Block: int64(block), Lag: lag,
		})
	}
}

// Observed returns the block actually referenced at a past position
// i < Cursor(). Unlike Refs (the disclosed hints), past accesses are
// observable by any policy — a hint-less LRU cache works from exactly
// this information. Asking about the future panics.
func (s *State) Observed(i int) layout.BlockID {
	if i >= s.Oracle.Cursor() {
		panic(fmt.Sprintf("engine: Observed(%d) is in the future (cursor %d)", i, s.Oracle.Cursor()))
	}
	if i < s.filled-len(s.refs) {
		panic(fmt.Sprintf("engine: Observed(%d) is outside the retained streaming window (oldest %d)",
			i, s.filled-len(s.refs)))
	}
	return s.refs[i&s.mask].Block
}

// NextUseVisible returns b's next disclosed use as the policy is allowed
// to see it: clamped to the lookahead window in windowed runs (Never
// beyond the horizon), the raw next use otherwise. Policies consulting
// next-use positions outside their bounded scan loops (e.g. forestall's
// eviction bookkeeping) must use this instead of Oracle.NextUse, or a
// windowed materialized run would act on future knowledge a streaming
// run cannot even hold.
func (s *State) NextUseVisible(b layout.BlockID) int {
	if s.window == 0 {
		return s.Oracle.NextUse(b)
	}
	return s.Oracle.NextUseWithin(b, max(s.window, 0))
}

// Fetches returns the number of fetches issued so far.
func (s *State) Fetches() int64 { return s.fetches }

// Issue starts a fetch of block b, evicting victim (cache.NoBlock for
// none), and enqueues the request at b's disk. The driver overhead is
// charged to the process timeline. Policies must only issue legal
// fetches; an illegal one aborts the run with an error.
func (s *State) Issue(b, victim layout.BlockID) {
	if err := s.Cache.StartFetch(b, victim); err != nil {
		if s.issueErr == nil {
			s.issueErr = fmt.Errorf("policy %s: %w", s.policyName, err)
		}
		return
	}
	pl := s.Layout.Lookup(b)
	req := s.newRequest()
	req.Block, req.LBN = b, pl.LBN
	s.Drives[pl.Disk].Enqueue(req, s.now)
	s.refreshDrive(pl.Disk)
	s.inFlightN++
	s.fetches++
	s.driverMs += s.overhead
	if !s.stalled {
		s.processAt += s.overhead
	}
	if s.obs != nil {
		s.batchIssued[pl.Disk]++
		s.obs.FetchIssued(obs.FetchEvent{
			TMs:         s.now,
			Block:       int64(b),
			Disk:        pl.Disk,
			QueueDepth:  s.Drives[pl.Disk].Outstanding(),
			CacheUsed:   s.Cache.Used(),
			DriverMs:    s.overhead,
			DuringStall: s.stalled,
		})
	}
}

// batchTracker wraps the policy of an observed run: each Poll or OnStall
// invocation counts the fetches the policy issues per disk (via
// State.batchIssued) and emits one BatchFormed event per disk that
// received any. Unobserved runs use the policy directly, so the fast
// path keeps its original call structure.
type batchTracker struct {
	s     *State
	inner Policy
}

func (t *batchTracker) Name() string    { return t.inner.Name() }
func (t *batchTracker) Attach(s *State) { t.inner.Attach(s) }

func (t *batchTracker) Poll() {
	clear(t.s.batchIssued)
	t.inner.Poll()
	emitBatches(t.s, false)
}

func (t *batchTracker) OnStall(b layout.BlockID) {
	clear(t.s.batchIssued)
	t.inner.OnStall(b)
	emitBatches(t.s, true)
}

func emitBatches(s *State, onStall bool) {
	if s.obs == nil {
		return
	}
	for d, n := range s.batchIssued {
		if n > 0 {
			s.obs.BatchFormed(obs.BatchEvent{TMs: s.now, Disk: d, Size: n, OnStall: onStall})
		}
	}
}

// Run executes the configured simulation to completion.
func Run(cfg Config) (Result, error) {
	s, err := newState(cfg)
	if err != nil {
		return Result{}, err
	}
	return runLoop(s, cfg)
}

// newState sets up a run from a resident Config.Trace or a streamed
// Config.Source alike: every rule and default is stated here once. Only
// three things depend on the mode. The true references are the trace
// itself, read in place, or a power-of-two ring, and the disclosed column
// is as long as the trace or the ring; the oracle is built over the whole
// disclosed sequence or slides with the ring; and the per-disk index is
// built lazily or slides too. A streamed run is byte-identical to the
// materialized run of the same trace: both load references through load
// in trace order, so the hint noise and the compute sum come out the
// same; the policies only inspect positions inside their lookahead
// window, which fill keeps resident; and eviction beyond the window falls
// back to the same LRU order in both modes.
func newState(cfg Config) (*State, error) {
	var m trace.Meta
	switch {
	case cfg.Trace != nil && cfg.Source != nil:
		return nil, fmt.Errorf("engine: Trace and Source are mutually exclusive")
	case cfg.Trace != nil:
		m = cfg.Trace.Source().Meta()
	case cfg.Source != nil:
		m = cfg.Source.Meta()
	default:
		return nil, fmt.Errorf("engine: nil trace")
	}
	streaming := cfg.Source != nil
	if cfg.Policy == nil {
		return nil, fmt.Errorf("engine: nil policy")
	}
	if cfg.Disks <= 0 {
		return nil, fmt.Errorf("engine: disks must be positive, got %d", cfg.Disks)
	}
	// A zero-length materialized trace is a valid degenerate run (nothing
	// happens, all metrics are zero); the public API screens it out
	// before reaching the engine.
	if m.Refs > 0 || streaming {
		if err := m.Validate(); err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
	}
	if m.Refs >= int64(future.Never) {
		return nil, fmt.Errorf("engine: trace of %d references exceeds the 2^31-1 position space", m.Refs)
	}
	n := int(m.Refs)
	window := 0
	if cfg.Hints != nil {
		if err := cfg.Hints.Validate(); err != nil {
			return nil, err
		}
		// A window covering the whole trace discloses exactly what
		// unlimited lookahead does (the horizon cursor+W stays past the
		// last reference for every cursor), so it is normalized to the
		// unlimited fast path: runs with W >= len(refs) are bit-identical
		// to full-knowledge runs by construction.
		window = cfg.Hints.Window
		if window >= n {
			window = 0
		}
	}
	if streaming {
		if _, ok := cfg.Policy.(interface{ RequiresFullTrace() }); ok {
			return nil, fmt.Errorf("engine: policy %s requires the full trace; materialize the source to run it", cfg.Policy.Name())
		}
		if window == 0 {
			return nil, fmt.Errorf("engine: streaming runs need Hints with a lookahead window smaller than the trace (%d refs); materialize the trace for unlimited lookahead", n)
		}
		if err := cfg.Source.Reset(); err != nil {
			return nil, fmt.Errorf("engine: source reset: %w", err)
		}
	}
	cacheBlocks := cfg.CacheBlocks
	if cacheBlocks == 0 {
		cacheBlocks = m.CacheBlocks
	}
	if cacheBlocks <= 1 {
		return nil, fmt.Errorf("engine: cache of %d blocks is too small", cacheBlocks)
	}
	overhead := cfg.DriverOverheadMs
	switch {
	case overhead == 0: //ppcvet:ignore unset-config sentinel, assigned by the caller rather than computed
		overhead = DefaultDriverOverheadMs
	case overhead < 0:
		overhead = 0
	}
	model := cfg.Model
	if model == nil {
		model = func() disk.Model { return disk.NewHP97560() }
	}
	lay, err := m.Layout(cfg.Disks, cfg.PlacementSeed)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}

	nBlocks := m.NumBlocks()
	s := &State{
		Layout:     lay,
		overhead:   overhead,
		obs:        cfg.Observer,
		window:     window,
		mask:       -1,
		n:          n,
		phantom:    layout.BlockID(nBlocks),
		blockSpace: nBlocks,
		traceName:  m.Name,
		policyName: cfg.Policy.Name(),
	}
	size := n
	if streaming {
		// The ring must hold the policies' whole lookahead ([cursor,
		// cursor+W)), the compute time of the reference after the one
		// being served, and a margin of already-consumed positions for
		// the recency policies' Observed back-reads (they lag the cursor
		// by a handful of references at most; 64 is comfortable).
		s.ahead = max(window, 0) + 2
		size = 1 << bits.Len(uint(s.ahead+63)) // the next power of two >= ahead+64
		s.mask = size - 1
		s.src, s.srcBuf = cfg.Source, make([]trace.Ref, 4096)
		s.refs = make([]trace.Ref, size)
	} else {
		s.refs = cfg.Trace.Refs
	}
	s.Refs = make([]layout.BlockID, size)
	if cfg.Hints != nil {
		s.blockSpace = nBlocks + 1
		s.noiser = newHintNoiser(cfg.Hints, s.phantom, nBlocks)
	}
	if streaming {
		s.Oracle = future.NewStreaming(s.blockSpace, size)
		s.dindex = future.NewSlidingDiskIndex(cfg.Disks, size)
	} else {
		for i, r := range cfg.Trace.Refs {
			if err := s.load(i, r); err != nil {
				return nil, err
			}
		}
		s.filled = n
		s.Oracle = future.New(s.Refs, s.blockSpace)
	}
	if s.Cache, err = cache.New(cacheBlocks, s.blockSpace, s.Oracle); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	if s.blockSpace > nBlocks {
		s.Cache.MarkAlwaysPresent(s.phantom)
	}
	if window != 0 {
		s.Cache.EnableWindow(window)
	}
	s.Drives = make([]*disk.Drive, cfg.Disks)
	for i := range s.Drives {
		s.Drives[i] = disk.NewDrive(model(), cfg.Discipline)
	}
	s.busyEnds = make([]float64, cfg.Disks)
	for i := range s.busyEnds {
		s.busyEnds[i] = math.Inf(1)
	}
	s.minBusyIdx, s.minBusyEnd = -1, math.Inf(1)
	s.idleDrives = cfg.Disks
	s.wireObserver()
	if streaming {
		if err := s.fill(0); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// load validates reference i and stores the block disclosed to the
// policy in its Refs slot — the phantom for a write, the hint noise's
// draw otherwise — and, in a streaming run, r itself in its ring slot. It
// also accumulates the total compute in trace order, so a streamed run's
// sum is bit-identical to a materialized run's.
func (s *State) load(i int, r trace.Ref) error {
	if int(r.Block) < 0 || int(r.Block) >= int(s.phantom) {
		return fmt.Errorf("engine: trace %q ref %d block %d out of range [0,%d)", s.traceName, i, r.Block, s.phantom)
	}
	if math.IsNaN(r.ComputeMs) || math.IsInf(r.ComputeMs, 0) || r.ComputeMs < 0 {
		return fmt.Errorf("engine: trace %q ref %d invalid compute %g", s.traceName, i, r.ComputeMs)
	}
	s.totalCompute += r.ComputeMs
	if math.IsInf(s.totalCompute, 0) {
		return fmt.Errorf("engine: trace %q total compute overflows at ref %d", s.traceName, i)
	}
	slot := i & s.mask
	if s.src != nil {
		s.refs[slot] = r
	}
	d := r.Block
	switch {
	case r.Write:
		// The first write of an unhinted run brings in the phantom.
		d = s.phantom
		s.blockSpace = int(s.phantom) + 1
	case s.noiser != nil:
		d = s.noiser.draw(r.Block)
	}
	s.Refs[slot] = d
	return nil
}

// wireObserver connects an observed run's per-drive and cache event
// plumbing to s.obs; unobserved runs skip it.
func (s *State) wireObserver() {
	if s.obs == nil {
		return
	}
	s.batchIssued = make([]int, len(s.Drives))
	s.breakdowns = make(map[*disk.Request]disk.Breakdown)
	for i, d := range s.Drives {
		i := i
		d.EnableBreakdown()
		d.OnStart = func(r *disk.Request, b disk.Breakdown, at float64) {
			s.breakdowns[r] = b
			s.obs.FetchStarted(obs.FetchEvent{
				TMs:        at,
				Block:      int64(r.Block),
				Disk:       i,
				Write:      r.Write,
				IssuedMs:   r.EnqueuedAt,
				StartMs:    at,
				QueuedMs:   at - r.EnqueuedAt,
				ServiceMs:  r.ServiceMs,
				SeekMs:     b.SeekMs,
				RotationMs: b.RotationMs,
				TransferMs: b.TransferMs,
			})
		}
	}
	s.Cache.OnEvict = func(victim, replacement layout.BlockID, nextUse int) {
		// Clamp the reported distance to the lookahead window: the event
		// stream must not disclose next uses the run itself cannot see
		// (and a streaming run does not even hold them).
		if s.window != 0 && nextUse != future.Never {
			if nextUse >= s.Oracle.Cursor()+max(s.window, 0) {
				nextUse = future.Never
			}
		}
		dist := -1
		if nextUse != future.Never {
			dist = nextUse - s.Oracle.Cursor()
		}
		s.obs.Eviction(obs.EvictEvent{
			TMs:             s.now,
			Victim:          int64(victim),
			Replacement:     int64(replacement),
			NextUseDistance: dist,
		})
	}
}

// runLoop drives the event loop to completion and assembles the Result.
// The State must be fully wired; streaming runs must have primed the
// reference window with fill(0) already.
//
//ppcvet:hotpath
func runLoop(s *State, cfg Config) (Result, error) {
	// pol is the policy the run loop drives; observed runs interpose the
	// batch tracker so BatchFormed events bracket each policy invocation.
	pol := cfg.Policy
	if s.obs != nil {
		pol = &batchTracker{s: s, inner: cfg.Policy}
	}
	cfg.Policy.Attach(s)

	n := s.n
	if n > 0 {
		// The process is about to start computing toward reference 0.
		s.processAt = s.ComputeMs(0)
		pol.Poll()
		if s.issueErr != nil {
			return Result{}, s.issueErr
		}
	}
	var done <-chan struct{}
	if cfg.Ctx != nil {
		done = cfg.Ctx.Done()
	}
	for cursor := 0; cursor < n; {
		if done != nil {
			select {
			case <-done:
				return Result{}, fmt.Errorf("%w after %d of %d references: %w",
					ErrCanceled, cursor, n, cfg.Ctx.Err())
			default:
			}
		}
		if s.src != nil {
			// Keep the streaming window primed past the lookahead horizon
			// before anything reads the columns at this cursor.
			if err := s.fill(cursor); err != nil {
				return Result{}, err
			}
		}
		// Next disk completion, if any (maintained incrementally by
		// refreshDrive; idle drives never surface).
		nextDisk, diskAt := s.minBusyIdx, s.minBusyEnd

		b := s.trueRef(cursor)

		if !s.stalled && diskAt >= s.processAt {
			// The process reaches its reference before any disk event.
			s.now = s.processAt
			if s.writeAt(cursor) {
				// Write behind: enqueue the update and continue without
				// stalling (the paper's motivation for ignoring writes).
				pl := s.Layout.Lookup(b)
				req := s.newRequest()
				req.Block, req.LBN, req.Write = b, pl.LBN, true
				s.Drives[pl.Disk].Enqueue(req, s.now)
				s.refreshDrive(pl.Disk)
				s.writes++
				s.driverMs += s.overhead
				if s.obs != nil {
					s.obs.FetchIssued(obs.FetchEvent{
						TMs:        s.now,
						Block:      int64(b),
						Disk:       pl.Disk,
						Write:      true,
						QueueDepth: s.Drives[pl.Disk].Outstanding(),
						CacheUsed:  s.Cache.Used(),
						DriverMs:   s.overhead,
					})
				}
				serveReference(s, pol, &cursor)
				if s.issueErr != nil {
					return Result{}, s.issueErr
				}
				// The write's driver overhead delays the next reference
				// (serveReference reset processAt from the compute time).
				s.processAt += s.overhead
				continue
			}
			if s.Cache.Present(b) {
				serveReference(s, pol, &cursor)
				if s.issueErr != nil {
					return Result{}, s.issueErr
				}
				continue
			}
			// Stall begins.
			s.stalled = true
			s.Cache.Miss()
			if s.obs != nil {
				s.stallStart = s.now
				s.obs.StallBegin(obs.StallEvent{
					TMs: s.now, Pos: cursor, Block: int64(b), Disk: s.DiskOf(b),
				})
				if s.window != 0 {
					// Under limited lookahead every demand miss is a
					// window miss: the block was either beyond the horizon
					// or invisible (undisclosed / WindowNone) when the
					// policy could still have prefetched it.
					s.obs.WindowMiss(obs.WindowEvent{
						TMs: s.now, Pos: cursor, Block: int64(b),
						Disk: s.DiskOf(b), Window: s.window,
					})
				}
			}
			if err := ensureStallFetch(s, pol, b, cursor); err != nil {
				return Result{}, err
			}
			continue
		}

		if nextDisk < 0 {
			// Unreachable when not stalled (the process branch above
			// always fires with no disk events); stalling with idle disks
			// means the policy failed to fetch.
			return Result{}, fmt.Errorf("engine: stalled on block %d with all disks idle", b)
		}

		// Advance to the disk completion.
		s.now = diskAt
		req := s.Drives[nextDisk].Complete(s.now)
		s.refreshDrive(nextDisk)
		if s.obs != nil {
			emitFetchCompleted(s, req, nextDisk)
		}
		if req.Write {
			// Write-behind completion: no cache state changes; just give
			// the policy a decision point.
			s.recycleRequest(req)
			pol.Poll()
			if s.issueErr != nil {
				return Result{}, s.issueErr
			}
			if s.stalled {
				if err := ensureStallFetch(s, pol, b, cursor); err != nil {
					return Result{}, err
				}
			}
			continue
		}
		// The request retires here; copy what the rest of the iteration
		// needs before recycling it.
		fetched := req.Block
		serviceMs := req.ServiceMs
		s.recycleRequest(req)
		s.Cache.CompleteFetch(fetched)
		s.inFlightN--
		if s.OnComplete != nil {
			s.OnComplete(nextDisk, serviceMs)
		}

		if s.stalled && fetched == b && !s.writeAt(cursor) {
			// Stall ends: the process consumes the reference now.
			s.stalled = false
			s.afterMiss = true
			s.processAt = s.now
			if s.obs != nil {
				s.obs.StallEnd(obs.StallEvent{
					TMs: s.now, Pos: cursor, Block: int64(b), Disk: nextDisk,
					DurationMs: s.now - s.stallStart,
				})
			}
			serveReference(s, pol, &cursor)
			if s.issueErr != nil {
				return Result{}, s.issueErr
			}
			continue
		}
		pol.Poll()
		if s.issueErr != nil {
			return Result{}, s.issueErr
		}
		if s.stalled {
			// A buffer may have freed up; make sure the stalled block's
			// fetch gets issued.
			if err := ensureStallFetch(s, pol, b, cursor); err != nil {
				return Result{}, err
			}
		}
	}

	elapsed := s.now
	if s.obs != nil {
		s.obs.RunEnd(elapsed)
	}
	var busy, svc, resp float64
	var served int64
	perDisk := make([]DiskResult, len(s.Drives))
	for i, d := range s.Drives {
		// Busy time is credited at service start; a speculative fetch still
		// in service when the last reference lands (readahead extrapolating
		// past the end of the trace) would otherwise count service beyond
		// the run window and push utilization above 1.
		diskBusy := d.BusyTime()
		if d.Busy() && d.BusyEnd() > elapsed {
			diskBusy -= d.BusyEnd() - elapsed
		}
		busy += diskBusy
		svc += float64(d.MeanServiceMs() * float64(d.Completed()))
		resp += float64(d.MeanResponseMs() * float64(d.Completed()))
		served += d.Completed()
		perDisk[i] = DiskResult{
			Fetches:    d.Completed(),
			BusySec:    diskBusy / 1000,
			AvgFetchMs: d.MeanServiceMs(),
			AvgRespMs:  d.MeanResponseMs(),
		}
		if elapsed > 0 {
			perDisk[i].Utilization = diskBusy / elapsed
		}
	}
	// Stall is the residual idle time, exactly as the paper decomposes
	// elapsed time: CPU compute + driver overhead + I/O stall. Driver work
	// performed while the process was stalled overlaps the stall, so the
	// residual (clamped at zero) is the pure idle component.
	stallMs := elapsed - s.totalCompute - s.driverMs
	if stallMs < 0 {
		stallMs = 0
	}
	res := Result{
		Trace:         s.traceName,
		Policy:        cfg.Policy.Name(),
		Disks:         cfg.Disks,
		Discipline:    cfg.Discipline,
		Fetches:       s.fetches,
		DriverTimeSec: s.driverMs / 1000,
		StallTimeSec:  stallMs / 1000,
		ElapsedSec:    elapsed / 1000,
		ComputeSec:    s.totalCompute / 1000,
		CacheHits:     s.Cache.Hits(),
		CacheMisses:   s.Cache.Misses(),
		WriteRequests: s.writes,
		PerDisk:       perDisk,
	}
	if served > 0 {
		res.AvgFetchMs = svc / float64(served)
		res.AvgResponseMs = resp / float64(served)
	}
	if elapsed > 0 {
		res.AvgUtilization = busy / elapsed / float64(len(s.Drives))
	}
	if cfg.Observer != nil {
		obs.Each(cfg.Observer, func(o obs.Observer) {
			if st, ok := o.(*obs.StreamingStats); ok {
				res.Latency = summarize(st)
			}
		})
	}
	return res, nil
}

// fill pulls references from the source until positions [cursor,
// cursor+ahead) (clamped to the trace length) are resident, loading each
// one and threading its disclosed block into the oracle, the cache's
// eviction index and the sliding disk index.
func (s *State) fill(cursor int) error {
	target := min(cursor+s.ahead, s.n)
	for s.filled < target {
		if s.srcI == s.srcN {
			nr, err := s.src.ReadRefs(s.srcBuf)
			if nr <= 0 {
				if err == nil || err == io.EOF {
					return fmt.Errorf("engine: source %q ended at reference %d of %d", s.traceName, s.filled, s.n)
				}
				return fmt.Errorf("engine: source %q read: %w", s.traceName, err)
			}
			// A non-EOF error alongside refs: consume them; the error
			// resurfaces on the next read if it persists.
			s.srcI, s.srcN = 0, nr
		}
		i := s.filled
		if err := s.load(i, s.srcBuf[s.srcI]); err != nil {
			return err
		}
		s.srcI++
		b := s.Ref(i)
		s.Oracle.Append(b)
		s.Cache.Appended(b, i)
		if d := s.indexedDisk(b); d >= 0 {
			s.dindex.Append(i, d)
		}
		s.filled++
	}
	return nil
}

// summarize converts a StreamingStats observer into the Result's
// latency summary.
func summarize(st *obs.StreamingStats) *LatencySummary {
	return &LatencySummary{
		FetchCount:  st.FetchLatency.Count(),
		FetchMeanMs: st.FetchLatency.MeanMs(),
		FetchP50Ms:  st.FetchLatency.Quantile(0.50),
		FetchP95Ms:  st.FetchLatency.Quantile(0.95),
		FetchP99Ms:  st.FetchLatency.Quantile(0.99),
		StallCount:  st.StallDuration.Count(),
		StallMeanMs: st.StallDuration.MeanMs(),
		StallP50Ms:  st.StallDuration.Quantile(0.50),
		StallP95Ms:  st.StallDuration.Quantile(0.95),
		StallP99Ms:  st.StallDuration.Quantile(0.99),
	}
}

// emitFetchCompleted reports a completed request, with its queueing and
// service breakdown, to the attached observer.
func emitFetchCompleted(s *State, req *disk.Request, d int) {
	if s.obs == nil {
		return
	}
	start := s.now - req.ServiceMs
	b := s.breakdowns[req]
	delete(s.breakdowns, req)
	s.obs.FetchCompleted(obs.FetchEvent{
		TMs:        s.now,
		Block:      int64(req.Block),
		Disk:       d,
		Write:      req.Write,
		QueueDepth: s.Drives[d].Outstanding(),
		CacheUsed:  s.Cache.Used(),
		IssuedMs:   req.EnqueuedAt,
		StartMs:    start,
		QueuedMs:   start - req.EnqueuedAt,
		ServiceMs:  req.ServiceMs,
		SeekMs:     b.SeekMs,
		RotationMs: b.RotationMs,
		TransferMs: b.TransferMs,
	})
}

// ensureStallFetch asks the policy to fetch the stalled block b. A policy
// may be unable to comply when every buffer is reserved by an in-flight
// fetch; in that case the engine retries after the next disk completion.
// It is an error only if no fetch is in flight anywhere (deadlock).
func ensureStallFetch(s *State, p Policy, b layout.BlockID, cursor int) error {
	if !s.Cache.Absent(b) {
		return nil // in flight, or completed while polling
	}
	p.OnStall(b)
	if s.issueErr != nil {
		return s.issueErr
	}
	if s.Cache.Absent(b) && s.inFlightN == 0 {
		return fmt.Errorf("engine: policy %s did not fetch stalled block %d at position %d",
			p.Name(), b, cursor)
	}
	return nil
}

// serveReference consumes the reference at *cursor (which must be
// present), advances the oracle and eviction bookkeeping, sets the
// process's next reference time, and polls the policy.
func serveReference(s *State, p Policy, cursor *int) {
	b := s.trueRef(*cursor)
	hit := !s.afterMiss
	switch {
	case s.writeAt(*cursor):
		// Writes bypass the cache.
	case s.afterMiss:
		s.Cache.ReferenceMissed(b)
		s.afterMiss = false
	default:
		s.Cache.Reference(b)
	}
	wasWrite := s.writeAt(*cursor)
	if s.obs != nil && !wasWrite {
		s.obs.RefServed(obs.RefEvent{
			TMs: s.now, Pos: *cursor, Block: int64(b),
			Disk: s.DiskOf(b), Hit: hit,
		})
	}
	*cursor++
	s.advanceCursor(*cursor)
	if !wasWrite {
		s.Cache.Touched(b)
	}
	if *cursor < s.n {
		s.processAt = s.now + s.ComputeMs(*cursor)
	}
	p.Poll()
}

// advanceCursor moves the oracle cursor to c, first popping the consumed
// positions from the disk index, if one exists.
func (s *State) advanceCursor(c int) {
	if s.dindex != nil {
		s.popDiskIndex(s.Cursor(), c)
	}
	s.Oracle.Advance(c)
}
