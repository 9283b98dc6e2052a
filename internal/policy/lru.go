package policy

import (
	"ppcsim/internal/cache"
	"ppcsim/internal/engine"
	"ppcsim/internal/layout"
)

// recency is the observed-reference recency tracker shared by the
// hint-less policies (demand-lru, readahead, history). It works from
// State.Observed — the exact access history any real buffer cache sees —
// so it is immune to hint quality and never consults the oracle.
//
// It keeps two lists. used holds the present blocks in the order of
// their last observed reference. spec holds the blocks the policy
// prefetched that have not been referenced since, in the order of their
// key: the cursor at insertion, or a later reference the block took
// while still in flight. The victim is the head of used; with used
// empty it is the present spec block of the lowest (key, block ID).
// Every member holds a buffer, so both lists are capacity-sized.
type recency struct {
	s *engine.State

	used, spec cache.List
	specKey    []int32 // per block: its spec key while a member of spec
	seen       int     // cursor position up to which the lists are updated
}

func (r *recency) attach(s *engine.State) {
	r.s = s
	k, n := s.Cache.Capacity(), s.Layout.NumBlocks()
	r.used = cache.NewList(k, n)
	r.spec = cache.NewList(k, n)
	r.specKey = make([]int32, n)
	r.seen = 0
}

// track folds newly consumed references into the recency lists. A
// present block moves to the back of used; a spec block still in flight
// (only a write can reference one) to the back of spec, keyed by this
// reference.
//
//ppcvet:hotpath
func (r *recency) track() {
	c := r.s.Cursor()
	for ; r.seen < c; r.seen++ {
		b := r.s.Observed(r.seen)
		switch {
		case r.s.Cache.Present(b):
			r.spec.Remove(b)
			r.used.Remove(b)
			r.used.PushBack(b)
		case r.spec.Contains(b):
			r.spec.Remove(b)
			r.spec.PushBack(b)
			r.specKey[b] = int32(r.seen)
		}
	}
}

// fetch issues a fetch of b into a free buffer, or over the least
// recently used block, and reports false when no buffer can be claimed
// (every one in flight; a demand fetch is then retried by the engine
// after the next completion). A speculative fetch joins spec, keyed by
// the current cursor, so it becomes a victim only when no referenced
// block is left: a fetch that has not had a chance to pay off is the
// last to go.
func (r *recency) fetch(b layout.BlockID, speculative bool) bool {
	v := cache.NoBlock
	if r.s.Cache.FreeBuffers() == 0 {
		if v = r.leastRecent(); v == cache.NoBlock {
			return false
		}
	}
	r.s.Issue(b, v)
	if speculative {
		r.spec.PushBack(b)
		r.specKey[b] = int32(r.s.Cursor())
	}
	return true
}

// leastRecent removes and returns the victim, or cache.NoBlock when no
// block is present.
//
//ppcvet:hotpath
func (r *recency) leastRecent() layout.BlockID {
	v := r.used.Front()
	if v != cache.NoBlock {
		r.used.Remove(v)
		return v
	}
	// spec is in key order; the first present member fixes the key, and
	// the lowest block ID among the present members sharing it wins.
	for b := r.spec.Front(); b != cache.NoBlock; b = r.spec.Next(b) {
		if v != cache.NoBlock && r.specKey[b] != r.specKey[v] {
			break
		}
		if r.s.Cache.Present(b) && (v == cache.NoBlock || b < v) {
			v = b
		}
	}
	if v != cache.NoBlock {
		r.spec.Remove(v)
	}
	return v
}

// DemandLRU is demand fetching with least-recently-used replacement — the
// policy of a conventional hint-less file system buffer cache. The paper
// motivates hints by the two techniques they enable, "deep prefetching
// and better-than-LRU cache replacement"; comparing DemandLRU with Demand
// (demand fetching with offline MIN replacement) isolates the value of
// the replacement half.
type DemandLRU struct {
	rec recency
}

// NewDemandLRU returns the demand-LRU baseline.
func NewDemandLRU() *DemandLRU { return &DemandLRU{} }

// Name implements engine.Policy.
func (d *DemandLRU) Name() string { return "demand-lru" }

// Attach implements engine.Policy.
func (d *DemandLRU) Attach(s *engine.State) { d.rec.attach(s) }

// Poll implements engine.Policy; demand fetching never prefetches, but the
// recency list must follow the cursor.
func (d *DemandLRU) Poll() { d.rec.track() }

// OnStall implements engine.Policy: fetch the missed block, evicting the
// least recently used present block.
func (d *DemandLRU) OnStall(b layout.BlockID) {
	d.rec.track()
	d.rec.fetch(b, false)
}
