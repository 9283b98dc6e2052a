// Package policy implements the online integrated prefetching and caching
// algorithms compared by the paper: optimal demand fetching, fixed
// horizon, (multi-disk) aggressive, and forestall. The offline reverse
// aggressive algorithm lives in package revagg.
package policy

import (
	"ppcsim/internal/cache"
	"ppcsim/internal/engine"
	"ppcsim/internal/layout"
)

// DefaultBatchSizes reproduces Table 6 of the paper: the batch size used
// by aggressive (and forestall) as a function of the number of disks.
func DefaultBatchSize(disks int) int {
	switch {
	case disks <= 1:
		return 80
	case disks <= 3:
		return 40
	case disks <= 5:
		return 16
	case disks <= 7:
		return 8
	default:
		return 4
	}
}

// scanEnd returns the exclusive end of a scan reaching ahead references
// past the cursor, clamped to the trace and the lookahead horizon. It
// never decreases as the cursor advances.
func scanEnd(s *engine.State, ahead int) int {
	return s.WindowLimit(min(s.Cursor()+ahead, s.Len()))
}

// issueWithVictim fetches block b applying the optimal replacement rule
// and the do-no-harm rule: the victim is the present block whose next
// reference is furthest in the future; the fetch happens only if a free
// buffer exists or the victim's next use is after needPos. It reports
// whether the fetch was issued, and the victim used (NoBlock if none)
// with its next use.
func issueWithVictim(s *engine.State, b layout.BlockID, needPos int) (bool, layout.BlockID, int) {
	if s.Cache.FreeBuffers() > 0 {
		s.Issue(b, cache.NoBlock)
		return true, cache.NoBlock, 0
	}
	v, vUse := s.Cache.FurthestEvictable()
	if v == cache.NoBlock {
		return false, cache.NoBlock, 0
	}
	if vUse <= needPos {
		// Do no harm: never evict a block needed no later than the block
		// being fetched.
		return false, cache.NoBlock, 0
	}
	s.Issue(b, v)
	return true, v, vUse
}

// demandFetch issues a demand fetch of b with optimal replacement and
// returns the victim, or cache.NoBlock when it evicted nothing. Do no
// harm never refuses it: a victim's next use is never before the cursor.
// When every buffer is reserved by an in-flight fetch it does nothing;
// the engine retries after the next completion.
func demandFetch(s *engine.State, b layout.BlockID) layout.BlockID {
	_, v, _ := issueWithVictim(s, b, -1)
	return v
}
