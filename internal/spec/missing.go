package spec

import "ppcsim/internal/layout"

// View is what aggressive and forestall read of a run: the disclosed
// block at each position, whether a block is absent (neither present nor
// in flight), and the disk holding a block.
type View struct {
	Ref    func(p int) layout.BlockID
	Absent func(layout.BlockID) bool
	DiskOf func(layout.BlockID) int
}

// Batch is the batch rule aggressive and forestall share (§2.7 of the
// paper): budget holds each disk's fetches left in this batch, and while
// some missing position in [cursor, limit) is on a disk with budget
// left, the lowest such position is fetched. fetch issues the fetch of
// block b needed at p, or refuses it under do no harm; the first refusal
// ends the batch, since every later missing block is needed later still.
func (v View) Batch(cursor, limit int, budget []int, fetch func(b layout.BlockID, p int) bool) {
	// The scan resumes after each fetch: taking the block at p in evicts
	// only a block used after p, so no earlier position turns missing.
	for p := cursor; ; p++ {
		for ; p < limit; p++ {
			if b := v.Ref(p); v.Absent(b) && budget[v.DiskOf(b)] > 0 {
				break
			}
		}
		if p == limit || !fetch(v.Ref(p), p) {
			return
		}
		budget[v.DiskOf(v.Ref(p))]--
	}
}

// Forecast is forestall's stall forecast (§5 of the paper) with the
// cursor at cursor: a stall on disk d is inevitable once its i-th
// missing position in [cursor, limit) lies fewer than i·F' references
// ahead. It reports whether one is, and the least slack (distance minus
// i·F') up to the first position that says so.
func (v View) Forecast(cursor, limit, d int, fprime float64) (trigger bool, minSlack int) {
	minSlack = 1 << 30
	i := 0
	for p := cursor; p < limit; p++ {
		if b := v.Ref(p); !v.Absent(b) || v.DiskOf(b) != d {
			continue
		}
		i++
		slack := (p - cursor) - int(float64(i)*fprime)
		minSlack = min(minSlack, slack)
		if slack < 0 {
			return true, minSlack
		}
	}
	return false, minSlack
}
