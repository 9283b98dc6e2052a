package spec

import (
	"ppcsim/internal/future"
	"ppcsim/internal/layout"
)

// Eviction states the cache's replacement rule (DESIGN.md §3,
// "Eviction"). The caller reports the cache's events to it: Keyed when a
// present block takes its next use as its key (at fetch completion, and
// when the cursor consumes a reference to it), Appended when a streaming
// oracle discloses a use, and Removed when a block leaves the cache.
// Victim answers by a scan over every block.
type Eviction struct {
	window int   // lookahead in references, or -1 for an unwindowed cache
	key    []int // per block: its key while present, unkeyed otherwise
	keyed  []int // per block: the clock at its last keying
	used   []int // per block: the clock at its last use, 0 when off the recency list
	clock  int
}

const unkeyed = -1

// NewEviction returns the rule for a cache over nBlocks block IDs with a
// lookahead window of window references; a negative window is an
// unwindowed cache.
func NewEviction(nBlocks, window int) *Eviction {
	e := &Eviction{window: window, key: make([]int, nBlocks), keyed: make([]int, nBlocks), used: make([]int, nBlocks)}
	for b := range e.key {
		e.key[b] = unkeyed
	}
	return e
}

// Keyed records that present block b was used and keyed with its next
// use u.
func (e *Eviction) Keyed(b layout.BlockID, u int) {
	e.clock++
	e.key[b], e.keyed[b], e.used[b] = u, e.clock, e.clock
}

// Appended records that a streaming oracle disclosed a use of b at p,
// where b's next use is now nextUse. A block keyed Never takes that use
// as its key when it is b's next one, the key a materialized oracle
// would have given it all along.
func (e *Eviction) Appended(b layout.BlockID, p, nextUse int) {
	if e.key[b] == future.Never && nextUse == p {
		e.key[b] = p
	}
}

// Removed records that b left the cache.
func (e *Eviction) Removed(b layout.BlockID) { e.key[b], e.used[b] = unkeyed, 0 }

// Victim returns the block the cache evicts with the cursor at cursor,
// and the next use it reports, or (NoBlock, -1). Among the present
// blocks, Never-keyed ones come first, least recently keyed first; then
// the largest key at or after the cursor. A key behind the cursor (a use
// consumed without a touch) is not evictable. In windowed mode a victim
// whose key lies at or beyond the horizon gives way to the least
// recently used block whose next use is there too, reported as Never;
// the blocks met inside the window on the way leave the recency list
// until they are used again.
func (e *Eviction) Victim(cursor int, nextUse func(layout.BlockID) int) (layout.BlockID, int) {
	v, u := NoBlock, -1
	for b, k := range e.key {
		switch {
		case k == future.Never && (u != future.Never || e.keyed[b] < e.keyed[v]):
			v, u = layout.BlockID(b), k
		case k >= cursor && k > u:
			v, u = layout.BlockID(b), k
		}
	}
	if horizon := cursor + e.window; e.window >= 0 && v != NoBlock && u >= horizon {
		for {
			w := -1
			for b, t := range e.used {
				if t > 0 && (w < 0 || t < e.used[w]) {
					w = b
				}
			}
			if w < 0 {
				break
			}
			if nextUse(layout.BlockID(w)) >= horizon {
				return layout.BlockID(w), future.Never
			}
			e.used[w] = 0
		}
	}
	return v, u
}
