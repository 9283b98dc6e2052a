// Package future provides the advance-knowledge oracle the paper's
// algorithms rely on: for the fully-hinted single process, every policy
// can ask for the next reference position of any block relative to the
// current position (cursor) in the request sequence. The oracle advances
// in lockstep with the simulated process and answers queries in O(1).
package future

import (
	"math"

	"ppcsim/internal/layout"
)

// Never is returned by NextUse for blocks that are not referenced again.
const Never = math.MaxInt32

// Oracle answers next-reference queries over a fixed request sequence.
//
// The per-block occurrence lists are stored in one CSR-style backing
// array: block b's reference positions are pos[start[b]:start[b+1]],
// ascending. A per-block pointer into that array (the "next-reference
// queue" head) advances as the cursor consumes references, so NextUse is
// a two-load O(1) query and building the oracle performs a constant
// number of allocations regardless of the block-space size.
type Oracle struct {
	refs  []layout.BlockID
	pos   []int32 // all reference positions, grouped by block, ascending
	start []int32 // per block b: its positions are pos[start[b]:start[b+1]]
	ptr   []int32 // per block: index into pos of first position >= cursor

	cursor int

	win *slidingWindow // non-nil in streaming mode (NewStreaming)
}

// slidingWindow holds the streaming oracle's state: a power-of-two ring
// of the most recently appended references plus intrusive per-block
// chains threading the unconsumed occurrences of each block through the
// ring, so NextUse stays a single load. Positions are absolute sequence
// indices; slot i&mask holds position i while filled-len(ring) < i.
type slidingWindow struct {
	ring   []layout.BlockID
	next   []int32 // per slot: next unconsumed position of the same block, or -1
	mask   int
	head   []int32 // per block: first unconsumed appended position, or -1
	tail   []int32 // per block: last appended position, or -1 (may be stale once head is -1)
	used   []int32 // per block: occurrences the cursor has consumed (see Consumed)
	filled int     // number of positions appended; the next Append is position filled
}

// New builds an oracle for the given reference sequence over a block ID
// space of nBlocks. The cursor starts at position 0 (before the first
// reference).
func New(refs []layout.BlockID, nBlocks int) *Oracle {
	o := &Oracle{
		refs:  refs,
		pos:   make([]int32, len(refs)),
		start: make([]int32, nBlocks+1),
		ptr:   make([]int32, nBlocks),
	}
	counts := make([]int32, nBlocks)
	for _, b := range refs {
		counts[b]++
	}
	sum := int32(0)
	for b, n := range counts {
		o.start[b] = sum
		o.ptr[b] = sum
		sum += n
	}
	o.start[nBlocks] = sum
	// Reuse counts as per-block fill cursors.
	copy(counts, o.start[:nBlocks])
	for i, b := range refs {
		o.pos[counts[b]] = int32(i)
		counts[b]++
	}
	return o
}

// NewStreaming builds an oracle that answers next-use queries over a
// sliding window of appended references instead of a fixed sequence: the
// producer calls Append as references stream in and Advance as they are
// consumed, keeping at most ringCap positions in flight. Queries see
// exactly the appended-but-unconsumed window — a next use that has not
// been appended yet is indistinguishable from Never, which is precisely
// the partial-knowledge semantics of a bounded lookahead window.
//
// ringCap must be a power of two strictly greater than the maximum
// number of unconsumed references resident at once (filled - cursor).
func NewStreaming(nBlocks, ringCap int) *Oracle {
	if ringCap <= 0 || ringCap&(ringCap-1) != 0 {
		panic("future: streaming ring capacity must be a power of two")
	}
	w := &slidingWindow{
		ring: make([]layout.BlockID, ringCap),
		next: make([]int32, ringCap),
		mask: ringCap - 1,
		head: make([]int32, nBlocks),
		tail: make([]int32, nBlocks),
		used: make([]int32, nBlocks),
	}
	for b := range w.head {
		w.head[b] = -1
		w.tail[b] = -1
	}
	return &Oracle{win: w}
}

// Append discloses the next reference (position filled) to a streaming
// oracle. Panics on a materialized oracle or if the window would exceed
// the ring capacity.
func (o *Oracle) Append(b layout.BlockID) {
	w := o.win
	if w == nil {
		panic("future: Append on a materialized oracle")
	}
	i := w.filled
	if i-o.cursor >= len(w.ring) {
		panic("future: streaming oracle window overflow")
	}
	slot := i & w.mask
	w.ring[slot] = b
	w.next[slot] = -1
	if w.head[b] < 0 {
		// No unconsumed occurrence in the window: any tail is stale (its
		// ring slot may since belong to another block), so start a fresh
		// chain rather than linking through it.
		w.head[b] = int32(i)
	} else {
		w.next[int(w.tail[b])&w.mask] = int32(i)
	}
	w.tail[b] = int32(i)
	w.filled++
}

// Len returns the length of the reference sequence: in streaming mode,
// the number of references appended so far.
func (o *Oracle) Len() int {
	if o.win != nil {
		return o.win.filled
	}
	return len(o.refs)
}

// Cursor returns the current position: the index of the next reference to
// be consumed.
func (o *Oracle) Cursor() int { return o.cursor }

// Block returns the block referenced at position i. In streaming mode i
// must still be resident in the ring.
func (o *Oracle) Block(i int) layout.BlockID {
	if w := o.win; w != nil {
		return w.ring[i&w.mask]
	}
	return o.refs[i]
}

// Advance moves the cursor forward to position c (monotonic). References
// that the cursor passes stop counting as "next uses".
//
//ppcvet:hotpath
func (o *Oracle) Advance(c int) {
	if c < o.cursor {
		panic("future: oracle cursor moved backwards")
	}
	if w := o.win; w != nil {
		if c > w.filled {
			panic("future: oracle cursor advanced past appended references")
		}
		for ; o.cursor < c; o.cursor++ {
			slot := o.cursor & w.mask
			b := w.ring[slot]
			if int(w.head[b]) == o.cursor {
				w.head[b] = w.next[slot]
			}
			w.used[b]++
		}
		return
	}
	for ; o.cursor < c; o.cursor++ {
		b := o.refs[o.cursor]
		// The cursor is consuming position o.cursor; move b's pointer past
		// it.
		if p := o.ptr[b]; int(o.pos[p]) == o.cursor {
			o.ptr[b] = p + 1
		}
	}
}

// NextUse returns the first position >= the cursor at which block b is
// referenced, or Never if it is not referenced again. This is the
// "next reference" every replacement rule in the paper is defined in
// terms of. A streaming oracle answers over its appended window: uses
// not yet disclosed read as Never.
func (o *Oracle) NextUse(b layout.BlockID) int {
	if w := o.win; w != nil {
		if h := w.head[b]; h >= 0 {
			return int(h)
		}
		return Never
	}
	p := o.ptr[b]
	if p >= o.start[b+1] {
		return Never
	}
	return int(o.pos[p])
}

// Consumed returns the number of occurrences of block b the cursor has
// passed. It changes exactly when NextUse(b) moves to a later position
// (or Never) because an occurrence was consumed — so it serves as a
// per-block epoch for detecting that movement even when both the old and
// new answers read as Never, as happens under a streaming oracle whose
// window slides past an occurrence and onward until the block's next use
// is no longer disclosed.
func (o *Oracle) Consumed(b layout.BlockID) int {
	if w := o.win; w != nil {
		return int(w.used[b])
	}
	return int(o.ptr[b] - o.start[b])
}

// NextUseWithin returns b's next reference position when it falls inside
// the lookahead window [cursor, cursor+window), and Never otherwise. It
// is NextUse as seen by a partial-knowledge policy: references beyond the
// window horizon are indistinguishable from references that never happen.
// A window of 0 means no future visibility at all.
func (o *Oracle) NextUseWithin(b layout.BlockID, window int) int {
	u := o.NextUse(b)
	if u == Never || u >= o.cursor+window {
		return Never
	}
	return u
}

// NextUseAfter returns the first position >= pos (with pos >= cursor) at
// which b is referenced, or Never. A streaming oracle walks b's chain
// through its appended window, so uses not yet disclosed read as Never.
func (o *Oracle) NextUseAfter(b layout.BlockID, pos int) int {
	if w := o.win; w != nil {
		for p := w.head[b]; p >= 0; p = w.next[int(p)&w.mask] {
			if int(p) >= pos {
				return int(p)
			}
		}
		return Never
	}
	lo, hi := int(o.ptr[b]), int(o.start[b+1])
	for lo < hi {
		mid := (lo + hi) / 2
		if int(o.pos[mid]) < pos {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= int(o.start[b+1]) {
		return Never
	}
	return int(o.pos[lo])
}
