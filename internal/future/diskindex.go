package future

import "ppcsim/internal/layout"

// DiskIndex groups the positions of a reference sequence by the disk
// holding each referenced block. The paper's multi-disk policies
// repeatedly need "the first missing block on disk d at or after the
// cursor"; scanning only that disk's positions turns a window walk that
// touches every reference (and a placement lookup per reference) into a
// walk over the 1/D fraction that can possibly match.
//
// The index has two modes sharing one query API (DiskCursor):
//
//   - Materialized (NewDiskIndex): positions are grouped into one
//     CSR-style backing array exactly like the Oracle's next-reference
//     queues, immutable after construction.
//   - Sliding (NewSlidingDiskIndex): the producer Appends positions as
//     references stream in and pops them with AdvancePast as the cursor
//     consumes them, keeping at most ringCap positions resident.
//
// Cursors over both modes walk identically over the positions they hold,
// which is what makes streamed and materialized runs byte-identical:
// bounded lookahead policies only ever walk positions inside their
// window, and the engine keeps the sliding index filled strictly past
// that horizon.
type DiskIndex struct {
	// Materialized mode.
	pos   []int32 // reference positions grouped by disk, ascending
	start []int32 // per disk d: its positions are pos[start[d]:start[d+1]]

	// Sliding mode.
	ring []int32 // per slot i&mask: next indexed position on the same disk, or -1
	mask int
	head []int32 // per disk: first unconsumed indexed position, or -1
	tail []int32 // per disk: last appended indexed position, or -1 (stale once head is -1)
}

// NewDiskIndex builds the index for the given reference sequence.
// diskOf maps a block to its disk, or a negative value for blocks that
// have no placement and can never be missing (the engine's phantom
// block); such positions are excluded from the index.
func NewDiskIndex(refs []layout.BlockID, disks int, diskOf func(layout.BlockID) int) *DiskIndex {
	x := &DiskIndex{start: make([]int32, disks+1)}
	counts := make([]int32, disks)
	n := 0
	for _, b := range refs {
		if d := diskOf(b); d >= 0 {
			counts[d]++
			n++
		}
	}
	x.pos = make([]int32, n)
	sum := int32(0)
	for d, c := range counts {
		x.start[d] = sum
		sum += c
	}
	x.start[disks] = sum
	copy(counts, x.start[:disks])
	for i, b := range refs {
		if d := diskOf(b); d >= 0 {
			x.pos[counts[d]] = int32(i)
			counts[d]++
		}
	}
	return x
}

// NewSlidingDiskIndex builds an empty sliding index over a ring of
// ringCap positions (a power of two, strictly greater than the maximum
// number of unconsumed positions resident at once).
func NewSlidingDiskIndex(disks, ringCap int) *DiskIndex {
	if ringCap <= 0 || ringCap&(ringCap-1) != 0 {
		panic("future: sliding disk index ring capacity must be a power of two")
	}
	x := &DiskIndex{
		ring: make([]int32, ringCap),
		mask: ringCap - 1,
		head: make([]int32, disks),
		tail: make([]int32, disks),
	}
	for d := range x.head {
		x.head[d] = -1
		x.tail[d] = -1
	}
	return x
}

// Append indexes position p on disk d. Positions must be appended in
// strictly ascending order; positions of unplaced (phantom) blocks are
// simply not appended.
func (x *DiskIndex) Append(p, d int) {
	if x.ring == nil {
		panic("future: Append on a materialized disk index")
	}
	x.ring[p&x.mask] = -1
	if x.head[d] < 0 {
		// Chain empty: any recorded tail has been consumed and its ring
		// slot may belong to another disk now; start fresh.
		x.head[d] = int32(p)
	} else {
		x.ring[int(x.tail[d])&x.mask] = int32(p)
	}
	x.tail[d] = int32(p)
}

// AdvancePast removes position p (on disk d) from a sliding index once
// the cursor has consumed it. Positions are consumed in order, so p is
// always the chain head when it is indexed at all.
func (x *DiskIndex) AdvancePast(p, d int) {
	if x.ring == nil {
		panic("future: AdvancePast on a materialized disk index")
	}
	if int(x.head[d]) == p {
		x.head[d] = x.ring[p&x.mask]
	}
}

// DiskCursor walks one disk's indexed positions in ascending order. It
// is resumable: on a sliding index whose positions have run out it picks
// up the positions appended since, and Seek moves it to a new start. A
// cursor is a value the caller owns; the index keeps no per-caller
// state, so any number of cursors may walk the same disk independently.
type DiskCursor struct {
	x   *DiskIndex
	d   int
	pos int // position under the cursor, or Never when none is indexed (yet)

	// Materialized mode: ps is Positions(d) and i indexes pos within it
	// (sliding mode leaves ps empty; Next's fast path then falls through).
	ps []int32
	i  int

	// Sliding mode: ring is the index's ring (nil when materialized) and
	// last the most recent position the cursor moved past (-1 if none),
	// from which it resumes once pos reads Never.
	ring []int32
	last int32
}

// Cursor returns a cursor at disk d's first indexed position: the first
// of Positions(d) in materialized mode, the first unconsumed position in
// sliding mode.
func (x *DiskIndex) Cursor(d int) DiskCursor {
	c := DiskCursor{x: x, d: d, ring: x.ring, last: -1}
	if x.ring == nil {
		c.ps = x.Positions(d)
	}
	c.Seek(0)
	return c
}

// Pos returns the position under the cursor, or Never when the disk has
// no indexed position at or after it. On a sliding index a Never answer
// is re-checked on every call, so the cursor sees positions appended
// after it ran out.
func (c *DiskCursor) Pos() int {
	if c.pos == Never && c.ring != nil {
		c.resume()
	}
	return c.pos
}

// Next moves the cursor past Pos().
func (c *DiskCursor) Next() {
	if c.i++; c.i < len(c.ps) {
		c.pos = int(c.ps[c.i])
		return
	}
	c.nextSlow()
}

// nextSlow is Next off the materialized fast path: the end of a
// materialized disk's positions, or a step along a sliding chain.
func (c *DiskCursor) nextSlow() {
	c.i = len(c.ps)
	if c.ring == nil {
		c.pos = Never
		return
	}
	if c.Pos() != Never {
		c.last = int32(c.pos)
		c.pos = Never
		if nx := c.ring[int(c.last)&c.x.mask]; nx >= 0 {
			c.pos = int(nx)
		}
	}
}

// Seek moves the cursor to disk d's first indexed position >= p. A
// materialized index binary-searches for it, forward or backward. A
// sliding index can only enter its per-disk chain at its head, so there
// p must be at most the disk's first unconsumed position (the next one
// appended, when all are consumed): seeking to the run's cursor always
// qualifies.
func (c *DiskCursor) Seek(p int) {
	if c.ring == nil {
		c.i = c.x.LowerBound(c.d, p)
		c.pos = Never
		if c.i < len(c.ps) {
			c.pos = int(c.ps[c.i])
		}
		return
	}
	if h := int(c.x.head[c.d]); h >= 0 && p > h {
		panic("future: sliding disk cursor seek past the disk's first unconsumed position")
	}
	c.last, c.pos = -1, Never
	c.resume()
}

// resume re-reads a sliding cursor that ran out of positions. If the
// last position it passed is still unconsumed (the chain head is at or
// before it), that position's ring link names the next one appended;
// otherwise the chain was consumed past it, or restarted, and the head
// is next.
func (c *DiskCursor) resume() {
	h := c.x.head[c.d]
	switch {
	case h < 0:
	case c.last < 0 || h > c.last:
		c.pos = int(h)
	default:
		if nx := c.ring[int(c.last)&c.x.mask]; nx >= 0 {
			c.pos = int(nx)
		}
	}
}

// Positions returns disk d's reference positions in ascending order
// (materialized mode only). The slice aliases the index; callers must
// not modify it.
func (x *DiskIndex) Positions(d int) []int32 {
	if x.ring != nil {
		panic("future: Positions on a sliding disk index")
	}
	return x.pos[x.start[d]:x.start[d+1]]
}

// LowerBound returns the index of the first position >= p in
// Positions(d) (== len(Positions(d)) if none). Materialized mode only.
func (x *DiskIndex) LowerBound(d, p int) int {
	ps := x.Positions(d)
	lo, hi := 0, len(ps)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(ps[mid]) < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
