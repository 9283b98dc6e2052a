package policy

import (
	"ppcsim/internal/engine"
	"ppcsim/internal/layout"
)

// Aggressive is the multi-disk aggressive algorithm (section 2.7 of the
// paper): whenever a disk is free, construct a batch of up to batch-size
// fetches for it — repeatedly take the first missing block on that disk
// and pair it with the cached block whose next reference is furthest in
// the future, as long as the do-no-harm rule allows. When several disks
// are free at once, their missing blocks are considered together in order
// of increasing request index.
type Aggressive struct {
	// BatchSize limits each batch; 0 selects the paper's Table 6 value
	// for the array size.
	BatchSize int

	s     *engine.State
	batch int
	// horizon bounds how far past the cursor the missing-block scan
	// walks: max(4*K, 4096), an implementation bound. The do-no-harm rule
	// is the real limiter except when the cache holds blocks that are
	// never referenced again.
	horizon int
	// rem is each disk's batch budget left in the current Poll.
	rem []int
	idx missIndex
}

// NewAggressive returns the multi-disk aggressive policy with the given
// batch size (0 → Table 6 default for the array size).
func NewAggressive(batchSize int) *Aggressive {
	return &Aggressive{BatchSize: batchSize}
}

// Name implements engine.Policy.
func (a *Aggressive) Name() string { return "aggressive" }

// Attach implements engine.Policy.
func (a *Aggressive) Attach(s *engine.State) {
	a.s = s
	a.batch = a.BatchSize
	if a.batch <= 0 {
		a.batch = DefaultBatchSize(len(s.Drives))
	}
	a.horizon = max(4*s.Cache.Capacity(), 4096)
	a.rem = make([]int, len(s.Drives))
	a.idx.attach(s)
}

// Poll implements engine.Policy: fill batches for every free disk,
// considering the free disks' missing blocks together in order of
// increasing request index.
func (a *Aggressive) Poll() {
	s := a.s
	limit := scanEnd(s, a.horizon)
	if s.Cache.FreeBuffers() == 0 {
		first := a.idx.firstMiss(limit)
		if first == noMiss {
			return // nothing missing anywhere in the window
		}
		// The batch loop fetches missing positions in ascending order and
		// stops outright on its first do-no-harm failure, so if the rule
		// rejects the first missing position of all it rejects the whole
		// Poll: with a full cache no fetch can be issued. The cache may only
		// be consulted when that position's own disk is free — then it is
		// provably the loop's first fetch attempt, and this is the same
		// FurthestEvictable call the loop would make (recency-list removals in
		// windowed mode and all); on any other Poll shape the loop decides
		// without the cache or with a different first candidate, so fall
		// through to it.
		if s.DriveFree(s.DiskOf(first.blk)) {
			if _, vUse := s.Cache.FurthestEvictable(); vUse <= int(first.pos) {
				return
			}
		}
	}
	if !s.AnyDriveFree() {
		return
	}
	for d := range a.rem {
		a.rem[d] = 0
		if s.DriveFree(d) {
			a.rem[d] = a.batch
		}
	}
	// Repeatedly fetch the first missing position among the disks that
	// still have batch budget (free at this Poll's start, fewer than
	// batch fetches so far). A busy disk's positions are never visited.
	for {
		next := a.idx.firstMiss(limit)
		if next != noMiss && a.rem[s.DiskOf(next.blk)] == 0 {
			next = noMiss
			for d, r := range a.rem {
				if r == 0 {
					continue
				}
				if e := a.idx.head(d, limit); e.pos < next.pos {
					next = e
				}
			}
		}
		if next == noMiss {
			break
		}
		ok, victim, _ := issueWithVictim(s, next.blk, int(next.pos))
		if !ok {
			// Do no harm disallows any further fetch: every later missing
			// block is needed even later than this one.
			break
		}
		a.rem[s.DiskOf(next.blk)]--
		a.idx.evict(victim)
	}
}

// OnStall implements engine.Policy: the stalled block is the first missing
// block, so the do-no-harm rule always allows a demand fetch.
func (a *Aggressive) OnStall(b layout.BlockID) {
	a.idx.evict(demandFetch(a.s, b))
}
