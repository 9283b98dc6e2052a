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
	H int

	s       *engine.State
	scanned int   // positions [0, scanned) have been window-checked
	pending []int // missing in-window positions awaiting a legal fetch
}

// NewFixedHorizon returns a fixed-horizon policy with the given prefetch
// horizon (DefaultHorizon if h <= 0).
func NewFixedHorizon(h int) *FixedHorizon {
	if h <= 0 {
		h = DefaultHorizon
	}
	return &FixedHorizon{H: h}
}

// Name implements engine.Policy.
func (f *FixedHorizon) Name() string { return "fixed-horizon" }

// Attach implements engine.Policy.
func (f *FixedHorizon) Attach(s *engine.State) {
	f.s = s
	f.scanned = 0
	f.pending = f.pending[:0]
}

// Poll implements engine.Policy: collect every position newly inside the
// prefetch window [cursor, cursor+H) whose block is missing, and fetch
// the pending positions in ascending order (the optimal-fetching rule:
// the soonest-needed missing block first). With H <= K every pending
// fetch is legal immediately; with huge horizons (H > K, the appendix-G
// configurations) the do-no-harm guard can defer the tail of the queue.
func (f *FixedHorizon) Poll() {
	s := f.s
	c := s.Cursor()
	limit := scanEnd(s, f.H)
	if f.scanned < c {
		f.scanned = c
	}
	for ; f.scanned < limit; f.scanned++ {
		if s.Cache.Absent(s.Ref(f.scanned)) {
			f.pending = append(f.pending, f.scanned)
		}
	}
	if len(f.pending) == 0 {
		return
	}
	sort.Ints(f.pending)
	// fetch may queue victims' next uses past the first n0 entries; they
	// are kept after the ones this loop retains.
	n0 := len(f.pending)
	kept := f.pending[:0]
	for i, p := range f.pending[:n0] {
		if p < c {
			continue
		}
		b := s.Ref(p)
		if !s.Cache.Absent(b) {
			continue
		}
		if !f.fetch(b, p) {
			// The do-no-harm guard failed at p; it fails for every later
			// position too (the victim's next use only looked worse).
			kept = append(kept, f.pending[i:n0]...)
			break
		}
	}
	f.pending = append(kept, f.pending[n0:]...)
}

// fetch issues the fixed-horizon fetch for b, needed at position p. The
// victim is the furthest-future block, "provided that reference is
// further than H accesses in the future (which will certainly hold if
// H <= K)"; when a huge horizon (H > K, the appendix-G configurations)
// breaks that guarantee, the do-no-harm rule is the operative guard —
// the paper's measured fetch counts at H = 2048 show its implementation
// still prefetching, which only do-no-harm permits.
func (f *FixedHorizon) fetch(b layout.BlockID, p int) bool {
	s := f.s
	if s.Cache.FreeBuffers() > 0 {
		s.Issue(b, cache.NoBlock)
		return true
	}
	v, vUse := s.Cache.FurthestEvictable()
	if v == cache.NoBlock || vUse <= p {
		return false
	}
	s.Issue(b, v)
	if vUse < f.scanned {
		// With H > K the victim's next reference can land inside the
		// already-scanned window; queue that position so the newly
		// missing block is still fetched. (With H <= K the guarantee
		// vUse > cursor+H makes this impossible.)
		f.pending = append(f.pending, vUse)
	}
	return true
}

// OnStall implements engine.Policy. A stall on an unissued block can only
// happen when the horizon rule was not allowed to fetch it; fall back to a
// demand fetch with optimal replacement.
func (f *FixedHorizon) OnStall(b layout.BlockID) {
	demandFetch(f.s, b)
}
