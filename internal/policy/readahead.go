package policy

import (
	"ppcsim/internal/cache"
	"ppcsim/internal/engine"
	"ppcsim/internal/layout"
)

const (
	// readaheadMinRun is the number of consecutive equal block-id deltas
	// required before the detector trusts a run and starts prefetching.
	readaheadMinRun = 2
	// readaheadMinDepth is the prefetch depth of a freshly confirmed run.
	readaheadMinDepth = 4
	// readaheadMaxDepth caps the adaptive depth.
	readaheadMaxDepth = 32
)

// Readahead is sequential readahead with adaptive depth — the classic
// hint-less file system prefetcher, included as the online lower bound of
// the knowledge spectrum (full hints > lookahead window > readahead >
// pure demand). It watches the observed reference stream for constant-
// stride runs (stride 1 is plain sequential scanning; the detector works
// for any constant delta, wrapping modulo the block space) and, once a
// run is readaheadMinRun deltas long, prefetches the extrapolated
// continuation. The depth doubles every time the run continues and
// resets when it breaks, mirroring the ramp-up of production readahead
// implementations. Replacement is LRU — with no future knowledge the
// oracle-based rules are off limits.
type Readahead struct {
	s   *engine.State
	rec recency

	seen   int            // detector's position: refs before it are consumed
	prev   layout.BlockID // last observed block
	delta  int            // current run's stride, 0 = none
	runLen int            // consecutive deltas matching the stride
	depth  int            // current prefetch depth
}

// NewReadahead returns the adaptive sequential readahead policy.
func NewReadahead() *Readahead { return &Readahead{} }

// Name implements engine.Policy.
func (r *Readahead) Name() string { return "readahead" }

// Attach implements engine.Policy.
func (r *Readahead) Attach(s *engine.State) {
	r.s = s
	r.rec.attach(s)
	r.seen = 0
	r.prev = cache.NoBlock
	r.delta, r.runLen, r.depth = 0, 0, 0
}

// observe folds newly consumed references into the run detector.
func (r *Readahead) observe() {
	c := r.s.Cursor()
	for ; r.seen < c; r.seen++ {
		b := r.s.Observed(r.seen)
		if r.prev == cache.NoBlock || b == r.prev {
			r.prev = b
			continue
		}
		n := r.s.Layout.NumBlocks()
		d := (int(b) - int(r.prev) + n) % n
		switch {
		case d == r.delta:
			r.runLen++
			if r.runLen >= readaheadMinRun {
				// The run keeps confirming; ramp the depth up.
				if r.depth == 0 {
					r.depth = readaheadMinDepth
				} else {
					r.depth = min(2*r.depth, readaheadMaxDepth)
				}
			}
		default:
			r.delta, r.runLen, r.depth = d, 1, 0
		}
		r.prev = b
	}
}

// Poll implements engine.Policy: keep the detector and recency tracking
// current, and prefetch the run's extrapolation while one is confirmed.
// A prefetch round is issued only when a new reference has been observed
// since the last one: Poll also fires on every disk completion, and
// re-issuing there would let the policy chase its own evictions — under
// cache pressure it can even evict the block the app is stalled on
// (which joins the recency order only when its reference is served),
// deadlocking the simulated app.
func (r *Readahead) Poll() {
	r.rec.track()
	prevSeen := r.seen
	r.observe()
	if r.seen == prevSeen || r.runLen < readaheadMinRun || r.depth == 0 {
		return
	}
	s := r.s
	n := s.Layout.NumBlocks()
	for k := 1; k <= r.depth; k++ {
		b := layout.BlockID((int(r.prev) + k*r.delta) % n)
		if !s.Cache.Absent(b) {
			continue // present or already in flight
		}
		if !r.rec.fetch(b, true) {
			return
		}
	}
}

// OnStall implements engine.Policy: demand-fetch the missed block with an
// LRU victim.
func (r *Readahead) OnStall(b layout.BlockID) {
	r.rec.track()
	r.observe()
	r.rec.fetch(b, false)
}
