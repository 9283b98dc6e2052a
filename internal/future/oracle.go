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

// Oracle answers next-reference queries over a disclosed request
// sequence. It threads each block's appended, unconsumed occurrences
// into a chain (see chains), so NextUse is a load of the block's chain
// head and NextUseAfter a load of one link. A materialized oracle (New)
// appends a whole sequence at once over an unwrapped ring; a streaming
// oracle (NewStreaming) appends references as they stream in over a
// sliding ring. A use not appended yet reads as Never.
type Oracle struct {
	refs   []layout.BlockID // the disclosed block at each position, in its ring slot
	uses   chains           // occurrences grouped by block
	filled int              // positions appended; the next Append is position filled
	cursor int
}

func newOracle(refs []layout.BlockID, nBlocks int, sliding bool) *Oracle {
	return &Oracle{refs: refs, uses: newChains(nBlocks, len(refs), sliding)}
}

// New builds an oracle for the given reference sequence over a block ID
// space of nBlocks. It aliases refs, which must not change afterwards.
// The cursor starts at position 0 (before the first reference).
func New(refs []layout.BlockID, nBlocks int) *Oracle {
	o := newOracle(refs, nBlocks, false)
	for i, b := range refs {
		o.uses.push(i, int(b))
	}
	o.filled = len(refs)
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
	return newOracle(make([]layout.BlockID, ringCap), nBlocks, true)
}

// Append discloses the next reference (position filled) to a streaming
// oracle. Panics if the window would exceed the ring capacity.
func (o *Oracle) Append(b layout.BlockID) {
	i := o.filled
	if i-o.cursor >= len(o.refs) {
		panic("future: streaming oracle window overflow")
	}
	o.refs[i&o.uses.mask] = b
	o.uses.push(i, int(b))
	o.filled++
}

// Cursor returns the current position: the index of the next reference to
// be consumed.
func (o *Oracle) Cursor() int { return o.cursor }

// Advance moves the cursor forward to position c (monotonic). References
// that the cursor passes stop counting as "next uses".
//
//ppcvet:hotpath
func (o *Oracle) Advance(c int) {
	if c < o.cursor {
		panic("future: oracle cursor moved backwards")
	}
	if c > o.filled {
		panic("future: oracle cursor advanced past appended references")
	}
	for ; o.cursor < c; o.cursor++ {
		b := o.refs[o.cursor&o.uses.mask]
		o.uses.pop(o.cursor, int(b))
	}
}

// NextUse returns the first position >= the cursor at which block b is
// referenced, or Never if it is not referenced again. This is the
// "next reference" every replacement rule in the paper is defined in
// terms of. A streaming oracle answers over its appended window: uses
// not yet disclosed read as Never.
func (o *Oracle) NextUse(b layout.BlockID) int { return o.uses.first(int(b)) }

// At returns the block disclosed at position p, which must be appended
// and not yet overwritten in a streaming oracle's ring.
func (o *Oracle) At(p int) layout.BlockID { return o.refs[p&o.uses.mask] }

// Slots returns how many position slots the oracle holds and the mask
// that maps a position to its slot: the sequence length and -1 for a
// materialized oracle, the ring capacity and capacity-1 for a streaming
// one.
func (o *Oracle) Slots() (n, mask int) { return len(o.refs), o.uses.mask }

// NextUseAfter returns the position of the next reference, after u, to
// the block referenced at u, or Never. u must be an appended position
// the cursor has not consumed, such as an answer of NextUse; uses not
// yet appended read as Never.
func (o *Oracle) NextUseAfter(u int) int { return o.uses.after(u) }

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
