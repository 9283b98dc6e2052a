package policy

import (
	"ppcsim/internal/cache"
	"ppcsim/internal/engine"
	"ppcsim/internal/layout"
)

const (
	// historySlots bounds the successor table to this many candidates per
	// block, so the association table is O(blocks), never O(blocks²).
	historySlots = 4
	// historyLag is how far apart two references may be to count as an
	// association (MITHRIL's lookahead range).
	historyLag = 4
	// historyMinCount is the support threshold: an association fires only
	// after it was observed this many times.
	historyMinCount = 2
)

// History is a MITHRIL-style history-based prefetcher: it mines sporadic
// block associations from the observed reference stream — pairs of blocks
// repeatedly accessed within historyLag references of each other — into a
// bounded per-block successor table, and prefetches a block's supported
// successors whenever it is referenced again. Unlike readahead it needs
// no spatial structure, so it captures the re-occurring irregular
// patterns (metadata before data, header before payload) that sequential
// detection misses. Replacement is LRU; with no future knowledge the
// oracle-based rules are off limits.
type History struct {
	s   *engine.State
	rec recency

	seen int // miner's position: refs before it are consumed

	// assoc[b] holds block b's successor candidates; count saturates and
	// the lowest-count slot is replaced when the table is full.
	assoc [][historySlots]assocSlot

	// prefetchedBy[b] records the trigger of an association prefetch of b
	// (NoBlock = none) and prefetchedAt the reference position it was
	// issued at, to report association hits with their lag.
	prefetchedBy []layout.BlockID
	prefetchedAt []int
}

// assocSlot is one mined association: trigger → block, seen count times.
type assocSlot struct {
	block layout.BlockID
	count int32
}

// NewHistory returns the history-based association prefetcher.
func NewHistory() *History { return &History{} }

// Name implements engine.Policy.
func (h *History) Name() string { return "history" }

// Attach implements engine.Policy.
func (h *History) Attach(s *engine.State) {
	h.s = s
	h.rec.attach(s)
	h.seen = 0
	n := s.Layout.NumBlocks()
	h.assoc = make([][historySlots]assocSlot, n)
	for b := range h.assoc {
		for i := range h.assoc[b] {
			h.assoc[b][i].block = cache.NoBlock
		}
	}
	h.prefetchedBy = make([]layout.BlockID, n)
	for b := range h.prefetchedBy {
		h.prefetchedBy[b] = cache.NoBlock
	}
	h.prefetchedAt = make([]int, n)
}

// note records the association a → b in a's successor table.
func (h *History) note(a, b layout.BlockID) {
	if a == b {
		return
	}
	slots := &h.assoc[a]
	minI := 0
	for i := range slots {
		sl := &slots[i]
		if sl.block == b {
			sl.count++
			return
		}
		if sl.block == cache.NoBlock {
			sl.block, sl.count = b, 1
			return
		}
		if sl.count < slots[minI].count {
			minI = i
		}
	}
	// Table full: replace the weakest association.
	slots[minI] = assocSlot{block: b, count: 1}
}

// observe mines newly consumed references: each new reference b is
// recorded as a successor of the historyLag references before it, and any
// outstanding association prefetch of b is reported as a hit.
func (h *History) observe() {
	c := h.s.Cursor()
	for ; h.seen < c; h.seen++ {
		b := h.s.Observed(h.seen)
		if t := h.prefetchedBy[b]; t != cache.NoBlock {
			h.s.NoteAssociationHit(t, b, h.seen-h.prefetchedAt[b])
			h.prefetchedBy[b] = cache.NoBlock
		}
		lo := h.seen - historyLag
		if lo < 0 {
			lo = 0
		}
		for p := lo; p < h.seen; p++ {
			h.note(h.s.Observed(p), b)
		}
	}
}

// Poll implements engine.Policy: mine the stream and prefetch the
// supported successors of the most recent reference.
func (h *History) Poll() {
	h.rec.track()
	prevSeen := h.seen
	h.observe()
	if h.seen == prevSeen || h.seen == 0 {
		return // no new trigger to act on
	}
	trigger := h.s.Observed(h.seen - 1)
	s := h.s
	for i := range h.assoc[trigger] {
		sl := h.assoc[trigger][i]
		if sl.block == cache.NoBlock || sl.count < historyMinCount {
			continue
		}
		if !s.Cache.Absent(sl.block) {
			continue // present or already in flight
		}
		if !h.rec.fetch(sl.block, true) {
			return
		}
		h.prefetchedBy[sl.block] = trigger
		h.prefetchedAt[sl.block] = s.Cursor()
	}
}

// OnStall implements engine.Policy: demand-fetch the missed block with an
// LRU victim. A miss also voids any outstanding association credit for
// the block — the prefetch clearly did not cover this use.
func (h *History) OnStall(b layout.BlockID) {
	h.rec.track()
	h.observe()
	h.prefetchedBy[b] = cache.NoBlock
	h.rec.fetch(b, false)
}
