package spec

import "ppcsim/internal/layout"

// Recency states the hint-less policies' victim rule (DESIGN.md §3,
// "Recency") by a full scan of a last-reference table. A block is on
// used from an observed reference taken while it is present until it is
// evicted; it is on spec from a speculative fetch until it is referenced
// while present or evicted. Its key is its last reference on used, and
// on spec the cursor at the fetch or a later reference taken while it is
// still in flight.
type Recency struct {
	key  []int
	list []uint8 // per block: offList, onUsed or onSpec

	// Fallbacks counts the victims taken from spec, and Ties those of
	// them chosen among equal keys by block ID.
	Fallbacks, Ties int
}

const (
	offList = iota
	onUsed
	onSpec
)

// NewRecency returns the rule over nBlocks block IDs.
func NewRecency(nBlocks int) *Recency {
	return &Recency{key: make([]int, nBlocks), list: make([]uint8, nBlocks)}
}

// Referenced records the observed reference to b at position p, as the
// policy folds it in: with b present or not at that moment.
func (r *Recency) Referenced(b layout.BlockID, p int, present bool) {
	switch {
	case present:
		r.list[b], r.key[b] = onUsed, p
	case r.list[b] == onSpec:
		r.key[b] = p
	}
}

// Prefetched records a speculative fetch of b with the cursor at c.
func (r *Recency) Prefetched(b layout.BlockID, c int) { r.list[b], r.key[b] = onSpec, c }

// Removed records that b was evicted.
func (r *Recency) Removed(b layout.BlockID) { r.list[b] = offList }

// Victim returns the present block of the lowest key on used or, with
// none there, the present block of the lowest (key, block ID) on spec,
// or NoBlock.
func (r *Recency) Victim(present func(layout.BlockID) bool) layout.BlockID {
	for _, l := range []uint8{onUsed, onSpec} {
		v, n := NoBlock, 0
		for b, k := range r.key {
			switch id := layout.BlockID(b); {
			case r.list[b] != l || !present(id):
			case v == NoBlock || k < r.key[v]:
				v, n = id, 1
			case k == r.key[v]:
				n++
			}
		}
		if v == NoBlock {
			continue
		}
		if l == onSpec {
			r.Fallbacks++
			if n > 1 {
				r.Ties++
			}
		}
		return v
	}
	return NoBlock
}
