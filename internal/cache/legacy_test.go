package cache

// The eviction heap the next-use bitmap replaced, and the recency heap
// the windowed LRU list replaced, kept as the reference for
// TestIndexMatchesLegacyHeap and BenchmarkEviction. Apart from the type
// name, it is the heap-based cache unchanged.

import (
	"fmt"

	"ppcsim/internal/future"
	"ppcsim/internal/layout"
)

// legacyCache is the cache as it was before the next-use bitmap: a
// lazily cleaned max-heap of (block, next use) entries.
type legacyCache struct {
	capacity int
	oracle   *future.Oracle
	st       []state
	used     int // present + in-flight buffers

	h evictHeap

	// neverEpoch records, per block, the oracle's consumed-occurrence
	// count at the time of the block's most recent Never-keyed heap push.
	// A Never key carries no position to go stale against, so this epoch
	// stands in: the entry is alive only while no occurrence of the block
	// has been consumed since the push. See FurthestEvictable.
	neverEpoch []int32

	// Partial-knowledge mode (EnableWindow): the replacement rule may use
	// next-use positions only inside the lookahead window
	// [cursor, cursor+window); for present blocks whose next use lies at
	// or beyond that horizon it falls back to least-recently-used order,
	// the TIP2-lineage behavior the window models. lastSeq and the lruHeap
	// track recency by a monotone per-use sequence number; both stay nil
	// in the default full-knowledge mode, which pays one branch per
	// FurthestEvictable call and nothing else.
	windowed bool
	window   int
	seq      int32
	lastSeq  []int32
	lru      lruHeap

	// OnEvict, if set, is invoked whenever a present block leaves the
	// cache — replaced by a fetch (replacement is the incoming block) or
	// dropped (replacement is NoBlock) — with the victim's next-use
	// position from the oracle (future.Never if it is never referenced
	// again). The engine uses it to emit eviction observability events.
	OnEvict func(victim, replacement layout.BlockID, nextUse int)

	// Statistics.
	hits, misses int64
}

// newLegacy creates a cache of capacity blocks over the given oracle's block ID
// space (one state slot per possible block).
func newLegacy(capacity, nBlocks int, o *future.Oracle) (*legacyCache, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("cache: capacity must be positive, got %d", capacity)
	}
	return &legacyCache{
		capacity:   capacity,
		oracle:     o,
		st:         make([]state, nBlocks),
		neverEpoch: make([]int32, nBlocks),
	}, nil
}

// EnableWindow switches the cache into partial-knowledge mode with a
// lookahead of w references (w >= 0; 0 means no future visibility, so
// replacement is pure LRU). Must be called before any block enters the
// cache. An unlimited window is the default mode; callers model it by
// not enabling a window at all.
func (c *legacyCache) EnableWindow(w int) {
	if w < 0 {
		w = 0
	}
	c.windowed = true
	c.window = w
	c.lastSeq = make([]int32, len(c.st))
}

// noteUse records a recency event for block b (fetch completion or the
// cursor passing a reference to it) in windowed mode.
func (c *legacyCache) noteUse(b layout.BlockID) {
	if !c.windowed {
		return
	}
	c.seq++
	c.lastSeq[b] = c.seq
	c.lru.push(lruEntry{block: b, seq: c.seq})
	if len(c.lru) > c.heapLimit() {
		c.compactLRUHeap()
	}
}

// compactLRUHeap rebuilds the recency heap keeping only each present
// block's newest entry (the only ones leastRecentBeyond can return).
// Sequence numbers are unique, so the pop order of the survivors — and
// therefore every LRU-fallback victim — is exactly what the
// uncompacted heap would have produced.
func (c *legacyCache) compactLRUHeap() {
	live := make(lruHeap, 0, 2*c.capacity)
	for _, e := range c.lru {
		if c.st[e.block] == present && e.seq == c.lastSeq[e.block] {
			live.push(e)
		}
	}
	c.lru = live
}

// StartFetch reserves a buffer for block b, evicting victim if it is not
// NoBlock. The victim becomes unavailable immediately. Returns an error
// if the transition is illegal (b not absent, victim not present, or no
// free buffer when no victim given).
func (c *legacyCache) StartFetch(b, victim layout.BlockID) error {
	if c.st[b] != absent {
		return fmt.Errorf("cache: fetch of block %d in state %d", b, c.st[b])
	}
	if victim == NoBlock {
		if c.used >= c.capacity {
			return fmt.Errorf("cache: fetch of %d without victim but cache full", b)
		}
		c.used++
	} else {
		if c.st[victim] != present {
			return fmt.Errorf("cache: victim %d not present", victim)
		}
		c.st[victim] = absent
		// The heap entry for victim becomes stale and is discarded lazily.
		if c.OnEvict != nil {
			c.OnEvict(victim, b, c.oracle.NextUse(victim))
		}
	}
	c.st[b] = inFlight
	return nil
}

// CompleteFetch makes block b available; its fetch must be in flight.
func (c *legacyCache) CompleteFetch(b layout.BlockID) {
	if c.st[b] != inFlight {
		panic(fmt.Sprintf("cache: completing fetch of block %d in state %d", b, c.st[b]))
	}
	c.st[b] = present
	c.pushEvict(b)
	c.noteUse(b)
}

// Drop evicts a present block without starting a fetch (frees its buffer).
// Used only by tests and diagnostics; the paper's policies always evict to
// make room for a fetch.
func (c *legacyCache) Drop(b layout.BlockID) error {
	if c.st[b] != present {
		return fmt.Errorf("cache: dropping block %d not present", b)
	}
	c.st[b] = absent
	c.used--
	if c.OnEvict != nil {
		c.OnEvict(b, NoBlock, c.oracle.NextUse(b))
	}
	return nil
}

// Touched must be called whenever the oracle cursor passes a reference to
// block b, so the eviction heap learns b's new next-use position.
func (c *legacyCache) Touched(b layout.BlockID) {
	if c.st[b] == present {
		c.pushEvict(b)
		c.noteUse(b)
	}
}

// pushEvict records a fresh eviction-heap entry for present block b keyed
// by its current next use, stamping the block's consumed-occurrence epoch
// when the key is Never.
func (c *legacyCache) pushEvict(b layout.BlockID) {
	u := c.oracle.NextUse(b)
	if u == future.Never {
		c.neverEpoch[b] = int32(c.oracle.Consumed(b))
	}
	c.h.push(entry{block: b, nextUse: int32(u)})
	if c.windowed && len(c.h) > c.heapLimit() {
		c.compactEvictHeap()
	}
}

// heapLimit is the lazy-deletion debt ceiling for the windowed-mode
// heaps. Lazy deletion only reclaims entries that surface at the top;
// entries whose keys sink never do, so an N-reference streamed run
// would otherwise hold O(N) dead entries — the one structure that would
// grow a bounded-window run without bound. Live entries number O(cache
// capacity), so compacting at a capacity multiple keeps memory
// independent of trace length while amortizing the rebuild to O(1) per
// push.
func (c *legacyCache) heapLimit() int { return 8*c.capacity + 1024 }

// compactEvictHeap rebuilds the eviction heap with exactly one entry
// per present block, keyed by what FurthestEvictable's surface-time
// rules would leave it as: fresh entries survive, outdated Never keys
// with a live epoch are re-keyed to the oracle's current finite answer
// (the same re-key the surface loop performs, just eagerly), and
// everything else is deterministically dead — an absent block's entry
// (re-fetching pushes a replacement), a finite key the oracle moved
// past (answers only move forward, so a mismatch never heals), or a
// Never key whose epoch went stale (the consumed count only grows).
//
// Deduplication cannot change a victim: surviving keys agree with the
// oracle, so duplicates for one block carry equal keys, finite keys are
// unique across blocks (two blocks cannot share a next-use position),
// and fresh-Never ties route through the LRU fallback in windowed mode
// — the only mode that compacts — rather than the heap's tie layout.
// Without the dedup a workload whose resident blocks all read Never
// (a loop longer than the window over a cache that fits it) keeps
// every duplicate alive, the rebuild never gets under the limit, and
// compaction degrades to a full scan per push.
func (c *legacyCache) compactEvictHeap() {
	live := make(evictHeap, 0, 2*c.capacity)
	kept := make(map[layout.BlockID]struct{}, 2*c.capacity)
	for _, e := range c.h {
		if c.st[e.block] != present {
			continue
		}
		if _, dup := kept[e.block]; dup {
			continue
		}
		u := c.oracle.NextUse(e.block)
		epochOK := c.neverEpoch[e.block] == int32(c.oracle.Consumed(e.block))
		switch {
		case int(e.nextUse) == u:
			if u == future.Never && !epochOK {
				// Dead by the surface rule: the disclosure window slid over
				// a use the process never touched (see FurthestEvictable).
				continue
			}
		case int(e.nextUse) == future.Never && u != future.Never && epochOK:
			e.nextUse = int32(u) // the surface-time Never -> finite re-key
		default:
			continue
		}
		kept[e.block] = struct{}{}
		live.push(e)
	}
	c.h = live
}

// FurthestEvictable returns the present block whose next reference is
// furthest in the future, along with that position (future.Never if it is
// never referenced again). It returns NoBlock if nothing is evictable.
// Stale heap entries are discarded as they surface.
//
// In windowed mode the furthest-known rule only applies while every
// present block's next use is inside the lookahead window. As soon as the
// heap's top — the furthest of them all — lies at or beyond the horizon,
// the policy cannot rank the beyond-horizon blocks, so the victim is the
// least recently used among them and the reported position is
// future.Never (all the policy knows is "not needed within the window").
func (c *legacyCache) FurthestEvictable() (layout.BlockID, int) {
	for len(c.h) > 0 {
		top := c.h[0]
		u := c.oracle.NextUse(top.block)
		fresh := c.st[top.block] == present && int(top.nextUse) == u
		if fresh && u == future.Never &&
			c.neverEpoch[top.block] != int32(c.oracle.Consumed(top.block)) {
			// The key still reads Never but an occurrence of the block was
			// consumed since it was recorded: under a streaming oracle the
			// answer moved Never -> finite -> Never as the disclosure
			// window slid over a use the process never touched, while a
			// materialized oracle's exact key would have died at the first
			// move. Treat the entry as dead so both modes agree.
			// Materialized mode never takes this branch — a Never answer
			// is final there, so the epoch cannot have changed.
			fresh = false
		}
		if !fresh {
			c.h.pop()
			// A live streaming oracle's answer can move from Never to a
			// finite position as the disclosure window slides forward over
			// a block's next use. Re-key such entries (epoch unchanged, so
			// the recorded Never is merely outdated, not dead) instead of
			// dropping them, or the block would vanish from eviction's
			// view even though a materialized oracle (whose answers only
			// ever grow) still sees it. Materialized mode never takes this
			// branch.
			if c.st[top.block] == present && int(top.nextUse) == future.Never && u != future.Never &&
				c.neverEpoch[top.block] == int32(c.oracle.Consumed(top.block)) {
				c.h.push(entry{block: top.block, nextUse: int32(u)})
			}
			continue
		}
		if c.windowed {
			if horizon := c.oracle.Cursor() + c.window; c.oracle.NextUseWithin(top.block, c.window) == future.Never {
				if b, ok := c.leastRecentBeyond(horizon); ok {
					return b, future.Never
				}
			}
		}
		return top.block, int(top.nextUse)
	}
	return NoBlock, -1
}

// leastRecentBeyond pops the least-recently-used present block whose next
// use is at or beyond the horizon. Entries for blocks back inside the
// window are discarded: before such a block can drift beyond the horizon
// again the cursor must pass its next use, which (for an accurate hint)
// re-touches it with a fresh entry. An inaccurate hint can skip that
// touch — the cursor consumes the position without referencing the block —
// in which case the block simply drops out of the LRU fallback and the
// caller's furthest-known rule covers it instead.
func (c *legacyCache) leastRecentBeyond(horizon int) (layout.BlockID, bool) {
	for len(c.lru) > 0 {
		top := c.lru[0]
		if c.st[top.block] != present || top.seq != c.lastSeq[top.block] {
			c.lru.pop()
			continue
		}
		if u := c.oracle.NextUse(top.block); u != future.Never && u < horizon {
			c.lru.pop()
			continue
		}
		return top.block, true
	}
	return NoBlock, false
}

// entry is one (possibly stale) eviction candidate.
type entry struct {
	block   layout.BlockID
	nextUse int32
}

// evictHeap is a max-heap on nextUse, hand-rolled so pushes stay on the
// hot path without the interface boxing of container/heap (one heap push
// per served reference adds up to an allocation per reference). The sift
// routines move a hole instead of swapping, but the comparison sequence
// and resulting array layout match container/heap element for element —
// the layout decides which of several equal-key blocks surfaces first,
// so it must not drift from the reference implementation.
type evictHeap []entry

// less orders i before j when i's next use is further in the future.
func (h evictHeap) less(i, j int) bool { return h[i].nextUse > h[j].nextUse }

// push adds e and restores the heap invariant (container/heap.Push).
func (h *evictHeap) push(e entry) {
	s := append(*h, e)
	*h = s
	// Sift up from the new leaf: shift ancestors smaller than e down a
	// level until e's slot (container/heap's up(), with e in a register).
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2 // parent
		if e.nextUse <= s[i].nextUse {
			break
		}
		s[j] = s[i]
		j = i
	}
	s[j] = e
}

// pop removes and returns the top entry (container/heap.Pop).
func (h *evictHeap) pop() entry {
	s := *h
	n := len(s) - 1
	top := s[0]
	// container/heap swaps the last leaf to the root and sifts it down
	// over s[:n]; holding that leaf in v and shifting the larger child up
	// each level lands every element in the identical slot.
	v := s[n]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && s[j2].nextUse > s[j1].nextUse {
			j = j2 // = 2*i + 2  // right child
		}
		if s[j].nextUse <= v.nextUse {
			break
		}
		s[i] = s[j]
		i = j
	}
	s[i] = v
	*h = s[:n]
	return top
}

// lruEntry is one (possibly stale) recency record for the windowed-mode
// fallback.
type lruEntry struct {
	block layout.BlockID
	seq   int32
}

// lruHeap is a min-heap on the use-sequence number, hand-rolled so a push
// boxes nothing; the sifts move a hole instead of swapping. Sequence
// numbers are unique, so the order is total and no tie-break subtlety
// arises.
type lruHeap []lruEntry

// push adds e and restores the heap invariant.
func (h *lruHeap) push(e lruEntry) {
	s := append(*h, e)
	*h = s
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2 // parent
		if e.seq >= s[i].seq {
			break
		}
		s[j] = s[i]
		j = i
	}
	s[j] = e
}

// pop removes and returns the top (least recently used) entry.
func (h *lruHeap) pop() lruEntry {
	s := *h
	n := len(s) - 1
	top := s[0]
	v := s[n]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && s[j2].seq < s[j1].seq {
			j = j2
		}
		if s[j].seq >= v.seq {
			break
		}
		s[i] = s[j]
		i = j
	}
	s[i] = v
	*h = s[:n]
	return top
}
