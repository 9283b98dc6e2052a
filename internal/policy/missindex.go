package policy

import (
	"cmp"
	"slices"

	"ppcsim/internal/cache"
	"ppcsim/internal/engine"
	"ppcsim/internal/future"
	"ppcsim/internal/layout"
)

// missIndex is the per-disk index of missing positions that aggressive
// and forestall share: the paper defines both over "the first missing
// blocks on that disk". Each disk keeps a classification frontier and a
// sorted list of candidate missing positions below it.
//
// Invariant: every position p in [cursor, scanned) on the disk whose
// block is absent has an entry in the list. The list may also hold stale
// entries — positions the cursor has passed, or blocks fetched since —
// so a listed entry is tested, never trusted, and stale ones are dropped
// as they surface. A block becomes absent only when the owning policy
// evicts it, and evict then inserts every use of the victim below the
// frontier, so nothing is ever classified twice.
type missIndex struct {
	s     *engine.State
	disks []missList
	// first is an entry at or below every live entry of every list:
	// firstMiss's last answer, lowered whenever an entry becomes live.
	// While it is live it is therefore the first missing position of
	// all; once a fetch or the cursor makes it stale, firstMiss looks
	// again.
	first missEntry
}

// missList is one disk's view of its missing blocks.
type missList struct {
	// cur sits at the disk's first indexed position at or after scanned.
	cur future.DiskCursor
	// scanned is the classification frontier; it never passes the
	// owner's scan limit, which only grows with the cursor and never
	// passes the lookahead horizon.
	scanned int
	// miss[lo:] holds the candidate missing positions below scanned, in
	// ascending order; entries before lo have been dropped.
	miss []missEntry
	lo   int
}

// missEntry is a candidate missing position and the block referenced
// there, kept together so the walks need no reference-column load.
type missEntry struct {
	pos int32
	blk layout.BlockID
}

// noMiss is what head returns for a disk with no missing position.
var noMiss = missEntry{pos: future.Never, blk: cache.NoBlock}

// attach resets the index for a run on s.
func (x *missIndex) attach(s *engine.State) {
	x.s = s
	dindex := s.DiskIndex()
	x.disks = make([]missList, len(s.Drives))
	for d := range x.disks {
		x.disks[d].cur = dindex.Cursor(d)
	}
	x.first = noMiss
}

// live reports whether e is still a missing position.
func (x *missIndex) live(e missEntry) bool {
	return int(e.pos) >= x.s.Cursor() && x.s.Cache.Absent(e.blk)
}

// classify moves disk d's frontier up to limit, listing the positions
// whose block is absent; with first set it stops just past the first
// one it lists. It returns the disk's list.
//
//ppcvet:hotpath
func (x *missIndex) classify(d, limit int, first bool) *missList {
	s := x.s
	l := &x.disks[d]
	if c := s.Cursor(); l.scanned < c {
		// Every listed position is behind the cursor.
		l.scanned = c
		l.miss, l.lo = l.miss[:0], 0
		if l.cur.Pos() < c {
			l.cur.Seek(c)
		}
	}
	for p := l.cur.Pos(); p < limit; p = l.cur.Pos() {
		l.cur.Next()
		if b := s.Ref(p); s.Cache.Absent(b) {
			x.grow(l)
			l.miss = append(l.miss, missEntry{pos: int32(p), blk: b})
			x.lower(l.miss[len(l.miss)-1])
			if first {
				l.scanned = p + 1
				return l
			}
		}
	}
	l.scanned = max(l.scanned, limit)
	return l
}

// head returns disk d's first missing position below limit, or noMiss,
// dropping the stale entries in front of it and classifying only as far
// as it must to find one.
//
//ppcvet:hotpath
func (x *missIndex) head(d, limit int) missEntry {
	l := &x.disks[d]
	for ; l.lo < len(l.miss); l.lo++ {
		if e := l.miss[l.lo]; x.live(e) {
			return e
		}
	}
	// Every listed entry was stale: the next one is past the frontier.
	l.miss, l.lo = l.miss[:0], 0
	if x.classify(d, limit, true); len(l.miss) == 0 {
		return noMiss
	}
	return l.miss[0]
}

// firstMiss returns the first missing position below limit on any
// disk, or noMiss. Its last answer stays exact while it is live: every
// disk's frontier lies past it, so a position before it can become
// missing only through evict.
//
//ppcvet:hotpath
func (x *missIndex) firstMiss(limit int) missEntry {
	if int(x.first.pos) < limit && x.live(x.first) {
		return x.first
	}
	x.first = noMiss
	for d := range x.disks {
		if e := x.head(d, limit); e.pos < x.first.pos {
			x.first = e
		}
	}
	return x.first
}

// evict records that the owning policy evicted v. Every use of v below
// its disk's frontier has become a missing position — not only the next
// one — so each is inserted in order, unless a stale entry for it is
// still listed. The uses are read from the oracle unclamped: the frontier
// never passes the lookahead horizon, so every use below it is visible.
//
//ppcvet:hotpath
func (x *missIndex) evict(v layout.BlockID) {
	if v == cache.NoBlock {
		return
	}
	o := x.s.Oracle
	l := &x.disks[x.s.DiskOf(v)]
	for u := o.NextUse(v); u < l.scanned; u = o.NextUseAfter(u) {
		x.grow(l)
		e := missEntry{pos: int32(u), blk: v}
		i, listed := slices.BinarySearchFunc(l.miss[l.lo:], e.pos, func(m missEntry, p int32) int {
			return cmp.Compare(m.pos, p)
		})
		if !listed {
			l.miss = slices.Insert(l.miss, l.lo+i, e)
		}
		x.lower(e)
	}
}

// lower records that e has become a live entry of a list.
func (x *missIndex) lower(e missEntry) {
	if e.pos < x.first.pos {
		x.first = e
	}
}

// grow makes room for one more entry in l, compacting the stale entries
// out of a full list first, so a list grows only when its live entries
// need the room.
func (x *missIndex) grow(l *missList) {
	if len(l.miss) < cap(l.miss) {
		return
	}
	w := 0
	for _, e := range l.miss[l.lo:] {
		if x.live(e) {
			l.miss[w] = e
			w++
		}
	}
	l.miss, l.lo = l.miss[:w], 0
}
