package main

import (
	"context"
	"errors"
	"time"

	"ppcsim"
	"ppcsim/internal/disk"
	"ppcsim/internal/engine"
	"ppcsim/internal/layout"
	"ppcsim/internal/revagg"
	"ppcsim/internal/trace"
)

// layerTimes is the host time one traced cell spent in each layer, taken
// by the wrappers below around the engine's calls into the policy, the
// disk model and the trace source. A disk call made from inside a policy
// call (Issue starting a request) counts once, as disk time.
type layerTimes struct {
	AttachNs   int64 `json:"attach_ns"` // policy Attach: reverse aggressive's BuildSchedule
	PollNs     int64 `json:"poll_ns"`   // policy Poll and OnStall
	Polls      int64 `json:"polls"`
	IdlePolls  int64 `json:"idle_polls"` // calls that issued no fetch
	DiskNs     int64 `json:"disk_ns"`
	DiskCalls  int64 `json:"disk_calls"`
	TraceNs    int64 `json:"trace_ns"` // Source.ReadRefs
	TraceCalls int64 `json:"trace_calls"`
	TraceRefs  int64 `json:"trace_refs"`
	// ForcedIssues is reverse aggressive's Stat.ForcedIssues.
	ForcedIssues int64 `json:"forced_issues"`
	// TimerNs is the estimated cost of the wrappers' own clock reads,
	// which correct moves out of the layers above.
	TimerNs int64 `json:"timer_ns"`

	nestedDisk int64 // disk calls made inside policy calls
	state      *engine.State
}

func (a *layerTimes) add(b layerTimes) {
	a.AttachNs += b.AttachNs
	a.PollNs += b.PollNs
	a.Polls += b.Polls
	a.IdlePolls += b.IdlePolls
	a.DiskNs += b.DiskNs
	a.DiskCalls += b.DiskCalls
	a.TraceNs += b.TraceNs
	a.TraceCalls += b.TraceCalls
	a.TraceRefs += b.TraceRefs
	a.ForcedIssues += b.ForcedIssues
	a.TimerNs += b.TimerNs
}

// selfNs is the layers' summed time.
func (a *layerTimes) selfNs() int64 { return a.AttachNs + a.PollNs + a.DiskNs + a.TraceNs }

// timerCost is what the two clock reads around one timed call cost.
type timerCost struct {
	inside float64 // the part that lands inside the timed interval
	pair   float64 // the whole cost, inside and out
}

// measureTimerCost times empty timed intervals; the median of five
// batches resists a batch the scheduler interrupted.
func measureTimerCost() timerCost {
	const n = 100_000
	var inside, pair []float64
	for b := 0; b < 5; b++ {
		var in time.Duration
		start := time.Now()
		for i := 0; i < n; i++ {
			t := time.Now()
			in += time.Since(t)
		}
		pair = append(pair, float64(time.Since(start))/n)
		inside = append(inside, float64(in)/n)
	}
	return timerCost{inside: median(inside), pair: median(pair)}
}

// correct removes the wrappers' clock reads from one cell's layer times:
// each timed call's interval holds the inside part of its own reads, and
// a policy call that started a disk request also holds the outside part
// of the disk call's reads. The total goes to TimerNs.
func (a *layerTimes) correct(c timerCost) {
	sub := func(v *int64, ns float64) {
		*v = max(*v-int64(ns), 0)
	}
	sub(&a.AttachNs, c.inside)
	sub(&a.PollNs, float64(a.Polls)*c.inside+float64(a.nestedDisk)*(c.pair-c.inside))
	sub(&a.DiskNs, float64(a.DiskCalls)*c.inside)
	sub(&a.TraceNs, float64(a.TraceCalls)*c.inside)
	a.TimerNs = int64(float64(1+a.Polls+a.DiskCalls+a.TraceCalls) * c.pair)
}

// timedPolicy wraps an engine.Policy.
type timedPolicy struct {
	engine.Policy
	t *layerTimes
}

func (p *timedPolicy) Attach(s *engine.State) {
	t := p.t
	t.state = s
	start, d, n := time.Now(), t.DiskNs, t.DiskCalls
	p.Policy.Attach(s)
	t.AttachNs += int64(time.Since(start)) - (t.DiskNs - d)
	t.nestedDisk += t.DiskCalls - n
}

func (p *timedPolicy) Poll() {
	t := p.t
	f, d, n := t.state.Fetches(), t.DiskNs, t.DiskCalls
	start := time.Now()
	p.Policy.Poll()
	t.PollNs += int64(time.Since(start)) - (t.DiskNs - d)
	t.nestedDisk += t.DiskCalls - n
	t.Polls++
	if t.state.Fetches() == f {
		t.IdlePolls++
	}
}

func (p *timedPolicy) OnStall(b layout.BlockID) {
	t := p.t
	f, d, n := t.state.Fetches(), t.DiskNs, t.DiskCalls
	start := time.Now()
	p.Policy.OnStall(b)
	t.PollNs += int64(time.Since(start)) - (t.DiskNs - d)
	t.nestedDisk += t.DiskCalls - n
	t.Polls++
	if t.state.Fetches() == f {
		t.IdlePolls++
	}
}

// fullTracePolicy is a timedPolicy around a policy that declares
// RequiresFullTrace; the engine checks for the method, so the wrapper
// has it exactly when the wrapped policy does.
type fullTracePolicy struct{ *timedPolicy }

func (fullTracePolicy) RequiresFullTrace() {}

func wrapPolicy(p engine.Policy, t *layerTimes) engine.Policy {
	tp := &timedPolicy{Policy: p, t: t}
	if _, ok := p.(interface{ RequiresFullTrace() }); ok {
		return fullTracePolicy{tp}
	}
	return tp
}

// timedModel wraps a disk model. Embedding the BreakdownModel keeps the
// decomposition surface the drive looks for.
type timedModel struct {
	disk.BreakdownModel
	t *layerTimes
}

func (m *timedModel) Service(lbn int64, now float64) float64 {
	start := time.Now()
	v := m.BreakdownModel.Service(lbn, now)
	m.t.DiskNs += int64(time.Since(start))
	m.t.DiskCalls++
	return v
}

// timedSource wraps a streaming trace source.
type timedSource struct {
	trace.Source
	t *layerTimes
}

func (s *timedSource) ReadRefs(p []trace.Ref) (int, error) {
	start := time.Now()
	n, err := s.Source.ReadRefs(p)
	s.t.TraceNs += int64(time.Since(start))
	s.t.TraceCalls++
	s.t.TraceRefs += int64(n)
	return n, err
}

// runTraced runs opts through engine.Run with the engine.Config that
// ppcsim.RunContext builds, except that the policy, disk models and
// source are wrapped to time each layer into t. Its Result is identical
// to ppcsim.RunContext's (TestTracedResultsMatch).
func runTraced(ctx context.Context, opts ppcsim.Options, t *layerTimes) (ppcsim.Result, error) {
	if err := opts.Validate(); err != nil {
		return ppcsim.Result{}, err
	}
	if opts.SimpleDiskModel || opts.DiskGeometry != nil {
		return ppcsim.Result{}, errors.New("perfbench: traced runs model the HP 97560 only")
	}
	pol, err := ppcsim.NewPolicy(opts)
	if err != nil {
		return ppcsim.Result{}, err
	}
	disks := opts.Disks
	if disks == 0 {
		disks = 1
	}
	var src trace.Source
	if opts.Source != nil {
		src = &timedSource{Source: opts.Source, t: t}
	}
	res, err := engine.Run(engine.Config{
		Trace:            opts.Trace,
		Source:           src,
		Policy:           wrapPolicy(pol, t),
		Disks:            disks,
		CacheBlocks:      opts.CacheBlocks,
		Discipline:       opts.Scheduler,
		Model:            func() disk.Model { return &timedModel{BreakdownModel: disk.NewHP97560(), t: t} },
		DriverOverheadMs: opts.DriverOverheadMs,
		PlacementSeed:    opts.PlacementSeed,
		Hints:            opts.Hints,
		Observer:         opts.Observer,
		Ctx:              ctx,
	})
	if ra, ok := pol.(*revagg.Policy); ok {
		t.ForcedIssues += int64(ra.Stat.ForcedIssues)
	}
	return res, err
}
