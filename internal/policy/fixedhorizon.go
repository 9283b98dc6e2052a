package policy

import (
	"sort"

	"ppcsim/internal/cache"
	"ppcsim/internal/engine"
	"ppcsim/internal/layout"
)

// DefaultHorizon is the prefetch horizon used throughout the paper:
// the ratio of an (over)estimated 15 ms average disk response time to the
// 243 µs TIP2 cost of reading a block from the cache gives H = 62.
const DefaultHorizon = 62

// FixedHorizon is the TIP2-derived algorithm restricted to a single
// hinting process: whenever a missing block is at most H references in
// the future, issue a fetch for it, replacing the cached block whose next
// reference is furthest in the future, provided that reference is further
// than H accesses away. It may have up to H outstanding requests, giving
// the disk scheduler reordering opportunities.
type FixedHorizon struct {
	H int // the prefetch horizon; Attach reads H <= 0 as DefaultHorizon

	s    *engine.State
	rule horizonRule
}

// NewFixedHorizon returns a fixed-horizon policy with the given prefetch
// horizon (DefaultHorizon if h <= 0).
func NewFixedHorizon(h int) *FixedHorizon { return &FixedHorizon{H: h} }

// Name implements engine.Policy.
func (f *FixedHorizon) Name() string { return "fixed-horizon" }

// Attach implements engine.Policy.
func (f *FixedHorizon) Attach(s *engine.State) {
	f.s = s
	f.rule.attach(f.H)
}

// Poll implements engine.Policy.
func (f *FixedHorizon) Poll() { f.rule.poll(f.s, nil) }

// OnStall implements engine.Policy. A stall on an unissued block can only
// happen when the horizon rule was not allowed to fetch it; fall back to a
// demand fetch with optimal replacement.
func (f *FixedHorizon) OnStall(b layout.BlockID) {
	demandFetch(f.s, b)
}

// horizonRule is fixed horizon's rule, which forestall also applies:
// fetch every missing block at most h references ahead.
type horizonRule struct {
	h       int
	scanned int   // positions [0, scanned) have been window-checked
	pending []int // missing in-window positions awaiting a legal fetch
}

// attach resets the rule for a run with horizon h (DefaultHorizon if
// h <= 0).
func (r *horizonRule) attach(h int) {
	if h <= 0 {
		h = DefaultHorizon
	}
	r.h, r.scanned, r.pending = h, 0, r.pending[:0]
}

// poll collects every position newly inside the prefetch window
// [cursor, cursor+h) whose block is missing, and fetches the pending
// positions in ascending order (the optimal-fetching rule: the
// soonest-needed missing block first). With h <= K every pending fetch
// is legal immediately; with huge horizons (h > K, the appendix-G
// configurations) the do-no-harm guard can defer the tail of the queue.
// evicted, if not nil, is called with the victim (cache.NoBlock if
// none) of every fetch issued.
func (r *horizonRule) poll(s *engine.State, evicted func(layout.BlockID)) {
	c := s.Cursor()
	limit := scanEnd(s, r.h)
	if r.scanned < c {
		r.scanned = c
	}
	for ; r.scanned < limit; r.scanned++ {
		if s.Cache.Absent(s.Ref(r.scanned)) {
			r.pending = append(r.pending, r.scanned)
		}
	}
	if len(r.pending) == 0 {
		return
	}
	sort.Ints(r.pending)
	// fetch may queue victims' next uses past the first n0 entries; they
	// are kept after the ones this loop retains.
	n0 := len(r.pending)
	kept := r.pending[:0]
	for i, p := range r.pending[:n0] {
		if p < c {
			continue
		}
		b := s.Ref(p)
		if !s.Cache.Absent(b) {
			continue
		}
		if !r.fetch(s, b, p, evicted) {
			// The do-no-harm guard failed at p; it fails for every later
			// position too (the victim's next use only looked worse).
			kept = append(kept, r.pending[i:n0]...)
			break
		}
	}
	r.pending = append(kept, r.pending[n0:]...)
}

// fetch issues the horizon-rule fetch for b, needed at position p. The
// victim is the furthest-future block, "provided that reference is
// further than H accesses in the future (which will certainly hold if
// H <= K)"; when a huge horizon (H > K, the appendix-G configurations)
// breaks that guarantee, the do-no-harm rule is the operative guard —
// the paper's measured fetch counts at H = 2048 show its implementation
// still prefetching, which only do-no-harm permits.
func (r *horizonRule) fetch(s *engine.State, b layout.BlockID, p int, evicted func(layout.BlockID)) bool {
	ok, v, vUse := IssueWithVictim(s, b, p)
	if !ok {
		return false
	}
	if v != cache.NoBlock && vUse < r.scanned {
		// With H > K the victim's next reference can land inside the
		// already-scanned window; queue that position so the newly
		// missing block is still fetched. (With H <= K the guarantee
		// vUse > cursor+H makes this impossible.)
		r.pending = append(r.pending, vUse)
	}
	if evicted != nil {
		evicted(v)
	}
	return true
}
