package future

import "ppcsim/internal/layout"

// DiskIndex groups the positions of a reference sequence by the disk
// holding each referenced block. The paper's multi-disk policies
// repeatedly need "the first missing block on disk d at or after the
// cursor"; scanning only that disk's positions turns a window walk that
// touches every reference (and a placement lookup per reference) into a
// walk over the 1/D fraction that can possibly match.
//
// It threads each disk's positions into a chain (see chains): over an
// unwrapped ring holding the whole sequence (NewDiskIndex), or over a
// sliding ring the producer Appends to as references stream in
// (NewSlidingDiskIndex). Either way the producer pops each position with
// AdvancePast once the cursor consumes it, so a disk's chain starts at
// its first unconsumed position.
type DiskIndex struct {
	pos chains
}

// NewDiskIndex builds the index for the given reference sequence.
// diskOf maps a block to its disk, or a negative value for blocks that
// have no placement and can never be missing (the engine's phantom
// block); such positions are excluded from the index.
func NewDiskIndex(refs []layout.BlockID, disks int, diskOf func(layout.BlockID) int) *DiskIndex {
	x := &DiskIndex{pos: newChains(disks, len(refs), false)}
	for i, b := range refs {
		if d := diskOf(b); d >= 0 {
			x.pos.push(i, d)
		}
	}
	return x
}

// NewSlidingDiskIndex builds an empty sliding index over a ring of
// ringCap positions (a power of two, strictly greater than the maximum
// number of unconsumed positions resident at once).
func NewSlidingDiskIndex(disks, ringCap int) *DiskIndex {
	return &DiskIndex{pos: newChains(disks, ringCap, true)}
}

// Append indexes position p on disk d of a sliding index. Positions must
// be appended in strictly ascending order; positions of unplaced
// (phantom) blocks are simply not appended.
func (x *DiskIndex) Append(p, d int) { x.pos.push(p, d) }

// AdvancePast removes position p (on disk d) once the cursor has
// consumed it.
func (x *DiskIndex) AdvancePast(p, d int) { x.pos.pop(p, d) }

// DiskCursor walks one disk's indexed positions in ascending order. It
// is resumable: once it runs out of positions it picks up the positions
// appended since, and Seek moves it back to the disk's first unconsumed
// position. A cursor is a value the caller owns; the index keeps no
// per-caller state, so any number of cursors may walk the same disk
// independently.
type DiskCursor struct {
	x   *chains
	d   int
	pos int // position under the cursor, or Never when none is indexed (yet)
	// last is the most recent position the cursor moved past (-1 if
	// none), from which it resumes once pos reads Never.
	last int
}

// Cursor returns a cursor at disk d's first unconsumed position.
func (x *DiskIndex) Cursor(d int) DiskCursor {
	c := DiskCursor{x: &x.pos, d: d}
	c.Seek(0)
	return c
}

// Pos returns the position under the cursor, or Never when the disk has
// no indexed position at or after it. A Never answer is re-checked on
// every call, so the cursor sees positions appended after it ran out.
func (c *DiskCursor) Pos() int {
	if c.pos == Never {
		c.resume()
	}
	return c.pos
}

// Next moves the cursor past the position Pos last returned, and does
// nothing when that was Never.
//
//ppcvet:hotpath
func (c *DiskCursor) Next() {
	if c.pos != Never {
		c.last = c.pos
		c.pos = c.x.after(c.last)
	}
}

// Seek moves the cursor to disk d's first unconsumed position: the
// first indexed position >= p, given that p is at most that position
// (the next one appended, when all are consumed). Seeking to the run's
// cursor always qualifies.
func (c *DiskCursor) Seek(p int) {
	if h := c.x.first(c.d); p > h {
		panic("future: disk cursor seek past the disk's first unconsumed position")
	}
	c.last, c.pos = -1, Never
	c.resume()
}

// resume re-reads a cursor that ran out of positions. If the last
// position it passed is still unconsumed (the chain head is at or before
// it), that position's link names the next one appended; otherwise the
// chain was consumed past it, or restarted, and the head is next.
func (c *DiskCursor) resume() {
	switch h := int(c.x.head[c.d]); {
	case h < 0:
	case h > c.last:
		c.pos = h
	default:
		c.pos = c.x.after(c.last)
	}
}
