package policy

import (
	"ppcsim/internal/engine"
	"ppcsim/internal/layout"
)

// Demand is the paper's demand-fetching baseline, made as favorable as
// possible: it fetches only on a miss, but uses the optimal offline
// replacement policy (evict the block whose next reference is furthest in
// the future) enabled by the same advance knowledge the prefetchers get.
type Demand struct {
	s *engine.State
}

// NewDemand returns the optimal demand-fetching baseline.
func NewDemand() *Demand { return &Demand{} }

// Name implements engine.Policy.
func (d *Demand) Name() string { return "demand" }

// Attach implements engine.Policy.
func (d *Demand) Attach(s *engine.State) { d.s = s }

// Poll implements engine.Policy. Demand fetching never prefetches.
func (d *Demand) Poll() {}

// OnStall implements engine.Policy: fetch the missed block, evicting the
// furthest-future block if the cache is full.
func (d *Demand) OnStall(b layout.BlockID) {
	demandFetch(d.s, b)
}
