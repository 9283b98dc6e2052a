package policy

// The worked example of the paper's Figure 1, replayed on the engine with
// the real policies. The paper's section 2.1 model has a cache of K = 4
// blocks over two disks, one time unit per reference and F = 2 units per
// fetch. Disk 0 holds A, C, E and F; disk 1 holds b and d. The
// application references A b C d E F with {A, b, d, F} cached at the start.
//
// The engine runs that model with a constant 2 ms service time, FCFS
// queues, no driver overhead, and 1 ms of compute before every reference
// but the first, so reference i is served at time i ms when nothing
// stalls. The engine's elapsed time ends when the last reference is
// served; the paper also charges that reference its time unit. So the
// paper's 7 (Figure 1a) and 6 (Figure 1b) are the engine's 6 ms and 5 ms.

import (
	"testing"

	"ppcsim/internal/cache"
	"ppcsim/internal/disk"
	"ppcsim/internal/engine"
	"ppcsim/internal/layout"
	"ppcsim/internal/trace"
)

// The example's blocks. Placement is by block number with a one-block
// stripe, so block i sits on disk i mod 2; block 5 is never referenced
// and only puts F on disk 0.
const (
	blkA = layout.BlockID(0)
	blkB = layout.BlockID(1) // "b" in the paper
	blkC = layout.BlockID(2)
	blkD = layout.BlockID(3) // "d" in the paper
	blkE = layout.BlockID(4)
	blkF = layout.BlockID(6)
)

// figure1Trace is the example's reference string in the timing above.
func figure1Trace() *trace.Trace {
	tr := &trace.Trace{Name: "figure1", Files: []layout.File{{First: 0, Blocks: 7}}}
	for i, b := range []layout.BlockID{blkA, blkB, blkC, blkD, blkE, blkF} {
		tr.Refs = append(tr.Refs, trace.Ref{Block: b, ComputeMs: min(float64(i), 1)})
	}
	return tr
}

// warmStart wraps a policy and caches the example's initial blocks
// before the run starts.
type warmStart struct{ engine.Policy }

func (w warmStart) Attach(s *engine.State) {
	for _, b := range []layout.BlockID{blkA, blkB, blkD, blkF} {
		if err := s.Cache.StartFetch(b, cache.NoBlock); err != nil {
			panic(err)
		}
		s.Cache.CompleteFetch(b)
	}
	w.Policy.Attach(s)
}

// scheduleOp fetches a block at a time, evicting another.
type scheduleOp struct {
	atMs         float64
	fetch, evict layout.BlockID
}

// schedule issues an explicit list of fetches, each at the first
// decision point at or after its time. It never demand-fetches, so a
// stall on a block it did not schedule fails the run.
type schedule struct {
	ops  []scheduleOp
	next int
	s    *engine.State
}

func (p *schedule) Name() string             { return "schedule" }
func (p *schedule) Attach(s *engine.State)   { p.s = s }
func (p *schedule) OnStall(b layout.BlockID) {}

func (p *schedule) Poll() {
	for ; p.next < len(p.ops) && p.ops[p.next].atMs <= p.s.Now(); p.next++ {
		p.s.Issue(p.ops[p.next].fetch, p.ops[p.next].evict)
	}
}

// runFigure1 runs pol from the example's warm start and checks the stall
// time, fetch count and elapsed time, all in ms.
func runFigure1(t *testing.T, pol engine.Policy, stallMs float64, fetches int64, elapsedMs float64) {
	t.Helper()
	r := mustRun(t, engine.Config{
		Trace:            figure1Trace(),
		Policy:           warmStart{pol},
		Disks:            2,
		CacheBlocks:      4,
		Discipline:       disk.FCFS,
		Model:            fixed(2),
		DriverOverheadMs: -1,
	})
	if got := r.StallTimeSec * 1000; got != stallMs {
		t.Errorf("%s: stall = %g ms, want %g", pol.Name(), got, stallMs)
	}
	if r.Fetches != fetches {
		t.Errorf("%s: fetches = %d, want %d", pol.Name(), r.Fetches, fetches)
	}
	if got := r.ElapsedSec * 1000; got != elapsedMs {
		t.Errorf("%s: elapsed = %g ms, want %g", pol.Name(), got, elapsedMs)
	}
}

// TestFigure1Aggressive reproduces Figure 1(a): aggressive fetches C at
// once, evicting F, the block needed furthest ahead; F's refetch then
// queues behind E on disk 0 and the run stalls one unit.
func TestFigure1Aggressive(t *testing.T) {
	runFigure1(t, NewAggressive(1), 1, 3, 6)
}

// TestFigure1FixedHorizon: "for small caches such as in this figure, the
// fixed horizon and aggressive algorithms both behave in this way".
func TestFigure1FixedHorizon(t *testing.T) {
	runFigure1(t, NewFixedHorizon(4), 1, 3, 6)
}

// TestFigure1BetterSchedule reproduces Figure 1(b): evicting d instead of
// F for C sends d's refetch to the idle disk 1, F stays cached, and the
// run never stalls.
func TestFigure1BetterSchedule(t *testing.T) {
	runFigure1(t, &schedule{ops: []scheduleOp{
		{atMs: 0, fetch: blkC, evict: blkD},
		{atMs: 1, fetch: blkD, evict: blkB},
		{atMs: 2, fetch: blkE, evict: blkA},
	}}, 0, 3, 5)
}

// TestFigure1Demand: optimal demand fetching misses on C and E and
// stalls the full fetch time on each.
func TestFigure1Demand(t *testing.T) {
	runFigure1(t, NewDemand(), 4, 2, 9)
}
