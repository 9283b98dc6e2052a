// Package cache implements the simulated buffer cache shared by every
// policy: K block-sized buffers, each holding a present block or reserved
// for an in-flight fetch. Eviction follows the model of the paper: the
// victim becomes unavailable at the moment its replacement fetch starts,
// and the incoming block becomes available when the fetch completes.
//
// Each present block holds one eviction key, its next reference: a bit
// in a bitmap over next-use positions, or a place in a least-recently-
// keyed list when it has none, so the optimal-replacement choice ("evict
// the block whose next reference is furthest in the future") is a
// highest-set-bit search.
package cache

import (
	"fmt"
	"math/bits"

	"ppcsim/internal/future"
	"ppcsim/internal/layout"
)

// NoBlock marks the absence of a block (e.g. a fetch with no eviction).
const NoBlock = layout.BlockID(-1)

// state of one block with respect to the cache.
type state uint8

const (
	absent state = iota
	inFlight
	present
)

// Cache is the simulated buffer cache.
type Cache struct {
	capacity int
	oracle   *future.Oracle
	st       []state
	used     int // present + in-flight buffers

	// The eviction index. key[b], valid while b is present, is its next
	// use when last keyed (fetch completion or Touched). A finite key k is
	// bit k&mask of bits, one bit per oracle slot; sum has a bit per
	// nonzero word of bits, and no key lies above position hi. Never-keyed
	// blocks are members of never, least recently keyed at the front.
	key       []int32
	bits, sum []uint64
	mask      int
	hi        int
	never     List

	// Partial-knowledge mode (EnableWindow): the replacement rule may use
	// next-use positions only inside the lookahead window
	// [cursor, cursor+window); for present blocks whose next use lies at
	// or beyond that horizon it falls back to least-recently-used order,
	// the TIP2-lineage behavior the window models. lru holds the present
	// blocks in the order of their last use (fetch completion or the
	// cursor passing a reference), minus those leastRecentBeyond found
	// back inside the window; it stays empty in the default
	// full-knowledge mode, which pays one branch per FurthestEvictable
	// call and nothing else.
	windowed bool
	window   int
	lru      List

	// OnEvict, if set, is invoked whenever a present block leaves the
	// cache — replaced by a fetch (replacement is the incoming block) or
	// dropped (replacement is NoBlock) — with the victim's next-use
	// position from the oracle (future.Never if it is never referenced
	// again). The engine uses it to emit eviction observability events.
	OnEvict func(victim, replacement layout.BlockID, nextUse int)

	// Statistics.
	hits, misses int64
}

// New creates a cache of capacity blocks over the given oracle's block ID
// space (one state slot per possible block).
func New(capacity, nBlocks int, o *future.Oracle) (*Cache, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("cache: capacity must be positive, got %d", capacity)
	}
	slots, mask := o.Slots()
	words := (slots + 63) / 64
	c := &Cache{
		capacity: capacity,
		oracle:   o,
		st:       make([]state, nBlocks),
		key:      make([]int32, nBlocks),
		bits:     make([]uint64, words),
		sum:      make([]uint64, (words+63)/64),
		mask:     mask,
		hi:       -1,
		never:    NewList(capacity, nBlocks),
	}
	return c, nil
}

// Capacity returns the number of buffers.
func (c *Cache) Capacity() int { return c.capacity }

// Used returns the number of buffers holding a block or reserved for one.
func (c *Cache) Used() int { return c.used }

// FreeBuffers returns how many buffers are unreserved.
func (c *Cache) FreeBuffers() int { return c.capacity - c.used }

// Present reports whether b can be referenced without stalling.
func (c *Cache) Present(b layout.BlockID) bool { return c.st[b] == present }

// InFlight reports whether a fetch of b has started but not completed.
func (c *Cache) InFlight(b layout.BlockID) bool { return c.st[b] == inFlight }

// Absent reports whether b is neither present nor in flight.
func (c *Cache) Absent(b layout.BlockID) bool { return c.st[b] == absent }

// Hits and Misses count Reference outcomes.
func (c *Cache) Hits() int64   { return c.hits }
func (c *Cache) Misses() int64 { return c.misses }

// EnableWindow switches the cache into partial-knowledge mode with a
// lookahead of w references (w >= 0; 0 means no future visibility, so
// replacement is pure LRU). Must be called before any block enters the
// cache. An unlimited window is the default mode; callers model it by
// not enabling a window at all.
func (c *Cache) EnableWindow(w int) {
	if w < 0 {
		w = 0
	}
	c.windowed = true
	c.window = w
	c.lru = NewList(c.capacity, len(c.st))
}

// Windowed reports whether EnableWindow was called.
func (c *Cache) Windowed() bool { return c.windowed }

// noteUse records a recency event for block b (fetch completion or the
// cursor passing a reference to it) in windowed mode.
//
//ppcvet:hotpath
func (c *Cache) noteUse(b layout.BlockID) {
	if c.windowed {
		c.lru.Remove(b)
		c.lru.PushBack(b)
	}
}

// remove takes present block b out of the cache and out of its indexes.
func (c *Cache) remove(b layout.BlockID) {
	c.st[b] = absent
	c.unkey(b)
	if c.windowed {
		c.lru.Remove(b)
	}
}

// MarkAlwaysPresent pins block b as permanently present without
// occupying a buffer or becoming an eviction candidate. The engine uses
// it for the phantom block that stands in for undisclosed hints.
func (c *Cache) MarkAlwaysPresent(b layout.BlockID) {
	c.st[b] = present
}

// Reference records the process referencing block b without a stall; it
// must be present.
func (c *Cache) Reference(b layout.BlockID) {
	if c.st[b] != present {
		panic(fmt.Sprintf("cache: referenced block %d not present", b))
	}
	c.hits++
}

// ReferenceMissed records the process referencing block b after a stall
// (the miss was already counted when the stall began); b must be present.
func (c *Cache) ReferenceMissed(b layout.BlockID) {
	if c.st[b] != present {
		panic(fmt.Sprintf("cache: referenced block %d not present", b))
	}
}

// Miss records that the process had to wait for b.
func (c *Cache) Miss() { c.misses++ }

// StartFetch reserves a buffer for block b, evicting victim if it is not
// NoBlock. The victim becomes unavailable immediately. Returns an error
// if the transition is illegal (b not absent, victim not present, or no
// free buffer when no victim given).
func (c *Cache) StartFetch(b, victim layout.BlockID) error {
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
		c.remove(victim)
		if c.OnEvict != nil {
			c.OnEvict(victim, b, c.oracle.NextUse(victim))
		}
	}
	c.st[b] = inFlight
	return nil
}

// CompleteFetch makes block b available; its fetch must be in flight.
func (c *Cache) CompleteFetch(b layout.BlockID) {
	if c.st[b] != inFlight {
		panic(fmt.Sprintf("cache: completing fetch of block %d in state %d", b, c.st[b]))
	}
	c.st[b] = present
	c.pushEvict(b)
	c.noteUse(b)
}

// Touched must be called whenever the oracle cursor passes a reference to
// block b, so the eviction index learns b's new next-use position.
func (c *Cache) Touched(b layout.BlockID) {
	if c.st[b] == present {
		c.unkey(b)
		c.pushEvict(b)
		c.noteUse(b)
	}
}

// Appended must be called after a streaming oracle appends block b at
// position p. It clears p's slot, whose bit belonged to a consumed
// position, and re-keys b to p if b is present and keyed Never, the key
// a materialized oracle would have given b all along.
func (c *Cache) Appended(b layout.BlockID, p int) {
	c.clearBit(p)
	if c.st[b] == present && c.key[b] == future.Never && c.oracle.NextUse(b) == p {
		c.unkey(b)
		c.pushEvict(b)
	}
}

// pushEvict keys present block b, which holds no key, by its current
// next use.
//
//ppcvet:hotpath
func (c *Cache) pushEvict(b layout.BlockID) {
	u := c.oracle.NextUse(b)
	c.key[b] = int32(u)
	if u == future.Never {
		c.never.PushBack(b)
		return
	}
	s := u & c.mask
	w := s >> 6
	c.bits[w] |= 1 << (s & 63)
	c.sum[w>>6] |= 1 << (w & 63)
	c.hi = max(c.hi, u)
}

// unkey removes b, which must hold a key, from the eviction index. A
// finite key behind the cursor is left as it is: nothing searches there,
// and under a streaming oracle its slot may already belong to a later
// position.
//
//ppcvet:hotpath
func (c *Cache) unkey(b layout.BlockID) {
	switch k := c.key[b]; {
	case k == future.Never:
		c.never.Remove(b)
	case int(k) >= c.oracle.Cursor():
		c.clearBit(int(k))
	}
}

// clearBit clears the bit of position p's slot.
func (c *Cache) clearBit(p int) {
	s := p & c.mask
	w := s >> 6
	if c.bits[w] &^= 1 << (s & 63); c.bits[w] == 0 {
		c.sum[w>>6] &^= 1 << (w & 63)
	}
}

// FurthestEvictable returns the present block whose next reference is
// furthest in the future, along with that position (future.Never if it is
// never referenced again). It returns NoBlock if nothing is evictable.
//
// A finite answer names one position and so one block. Among Never-keyed
// blocks the least recently keyed goes first, so a run that discloses
// nothing replaces as demand-LRU does. A block whose disclosed next use
// was consumed without a touch (an undisclosed or inaccurate hint) keeps
// a key behind the cursor and is not evictable until keyed again.
//
// In windowed mode the furthest-known rule only applies while every
// present block's next use is inside the lookahead window. As soon as the
// furthest of them all lies at or beyond the horizon, the policy cannot
// rank the beyond-horizon blocks, so the victim is the least recently used
// among them and the reported position is future.Never (all the policy
// knows is "not needed within the window").
//
//ppcvet:hotpath
func (c *Cache) FurthestEvictable() (layout.BlockID, int) {
	b, u := c.never.Front(), future.Never
	if b == NoBlock {
		if u = c.topKey(); u < 0 {
			return NoBlock, -1
		}
		b = c.oracle.At(u)
	}
	if horizon := c.oracle.Cursor() + c.window; c.windowed && u >= horizon {
		if v, ok := c.leastRecentBeyond(horizon); ok {
			return v, future.Never
		}
	}
	return b, u
}

// topKey returns the highest keyed position at or after the cursor, or
// -1, and lowers hi to it. The positions [cursor, hi] span fewer slots
// than the ring holds, so in slot order they are one range, or two when
// they wrap past the ring's end.
//
//ppcvet:hotpath
func (c *Cache) topKey() int {
	lo := c.oracle.Cursor()
	if c.hi < lo {
		return -1
	}
	hs, ls := c.hi&c.mask, lo&c.mask
	p := -1
	if hs >= ls {
		if s := c.highestSet(ls, hs); s >= 0 {
			p = c.hi - (hs - s)
		}
	} else if s := c.highestSet(0, hs); s >= 0 {
		p = c.hi - (hs - s)
	} else if s := c.highestSet(ls, c.mask); s >= 0 {
		p = lo + (s - ls)
	}
	c.hi = max(p, lo-1)
	return p
}

// highestSet returns the highest set slot in [from, to] (from <= to), or
// -1, skipping empty words through the summary bitmap.
//
//ppcvet:hotpath
func (c *Cache) highestSet(from, to int) int {
	for {
		w := to >> 6
		if s := highest(c.bits, max(from, w<<6), to); s >= 0 {
			return s
		}
		if w = highest(c.sum, from>>6, w-1); w < 0 {
			return -1
		}
		to = w<<6 + 63
	}
}

// highest returns the highest set bit of bm in [from, to], or -1.
//
//ppcvet:hotpath
func highest(bm []uint64, from, to int) int {
	for to >= from {
		i := to >> 6
		x := bm[i] & (^uint64(0) >> (63 - to&63))
		if i == from>>6 {
			x &= ^uint64(0) << (from & 63)
		}
		if x != 0 {
			return i<<6 + bits.Len64(x) - 1
		}
		to = i<<6 - 1
	}
	return -1
}

// leastRecentBeyond returns the least-recently-used present block whose
// next use is at or beyond the horizon. Blocks met back inside the window
// leave the list: before such a block can drift beyond the horizon again
// the cursor must pass its next use, which (for an accurate hint)
// re-touches it and pushes it back. An inaccurate hint can skip that
// touch — the cursor consumes the position without referencing the block —
// in which case the block simply drops out of the LRU fallback and the
// caller's furthest-known rule covers it instead.
//
//ppcvet:hotpath
func (c *Cache) leastRecentBeyond(horizon int) (layout.BlockID, bool) {
	for b := c.lru.Front(); b != NoBlock; b = c.lru.Front() {
		if u := c.oracle.NextUse(b); u == future.Never || u >= horizon {
			return b, true
		}
		c.lru.Remove(b)
	}
	return NoBlock, false
}
