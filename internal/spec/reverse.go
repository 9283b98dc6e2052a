package spec

import (
	"cmp"
	"container/heap"
	"slices"

	"ppcsim/internal/future"
	"ppcsim/internal/layout"
)

// Op is one forward fetch/eviction pair of a reverse aggressive
// schedule, as revagg.Op: fetch Fetch for the reference at NeedIdx,
// evicting Evict (NoBlock for none) no earlier than position Release.
type Op struct {
	Fetch, Evict     layout.BlockID
	NeedIdx, Release int
}

// ReversePass states reverse aggressive's greedy pass (§2.5 of the
// paper) in the theoretical model: one reference per time unit, F time
// units per fetch. Over the reversed sequence, whenever the cache is
// full, every free disk builds a batch of up to batch fetches: each
// fetches the first missing block M in place of the block B on that disk
// whose next reverse use is furthest away, as long as that use comes
// after M's, and occupies the disk. The fetches in flight are one list
// in issue order, scanned at every step; a completed block joins its
// disk's candidates. Each fetch of M over B is the forward pair "fetch B
// for its last reverse reference so far, evict M from one past its
// reference". The blocks cached at the end are the forward working set,
// fetched first in order of the reference they serve (then block ID);
// the pairs follow in reverse emission order.
//
// The candidates of a disk are container/heap's max-heap on the next
// reverse use at push time, with stale entries (a block no longer
// present, or whose next use moved) discarded as they surface: among
// blocks never used again, the one chosen follows that heap's layout.
func ReversePass(refs []layout.BlockID, diskOf func(layout.BlockID) int, nBlocks, disks, capacity int, f float64, batch int) []Op {
	n := len(refs)
	rev := slices.Clone(refs)
	slices.Reverse(rev)
	oracle := future.New(rev, nBlocks)
	const (
		absent = iota
		flying
		present
	)
	st := make([]uint8, nBlocks)
	lastUse := make([]int, nBlocks) // last consumed reverse position, -1 if none
	for b := range lastUse {
		lastUse[b] = -1
	}
	needIdx := func(b layout.BlockID) int {
		if lastUse[b] < 0 {
			return n
		}
		return n - 1 - lastUse[b]
	}
	heaps := make([]maxHeap, disks)
	push := func(b layout.BlockID) { heap.Push(&heaps[diskOf(b)], candidate{b, oracle.NextUse(b)}) }
	firstMissing := func(from int) int {
		for p := from; p < n; p++ {
			if st[rev[p]] == absent {
				return p
			}
		}
		return n
	}
	type flight struct {
		block layout.BlockID
		done  float64
	}
	var inflight []flight
	freeAt := make([]float64, disks)
	var pairs []Op
	used := 0
	for t, cursor := 0.0, 0; cursor < n; {
		kept := inflight[:0]
		for _, fl := range inflight {
			if fl.done > t {
				kept = append(kept, fl)
				continue
			}
			st[fl.block] = present
			push(fl.block)
		}
		inflight = kept
		// One scan from the cursor per step that can fetch: within the
		// step, taking the block at p in only evicts blocks used after p.
		if used < capacity || slices.Min(freeAt) <= t {
			p := firstMissing(cursor)
			for ; used < capacity && p < n; p = firstMissing(p + 1) {
				st[rev[p]] = present
				used++
				push(rev[p])
			}
			for d := 0; d < disks && used == capacity; d++ {
				if freeAt[d] > t {
					continue
				}
				for k := 0; k < batch && p < n; k, p = k+1, firstMissing(p+1) {
					h := &heaps[d]
					for h.Len() > 0 && (st[(*h)[0].block] != present || (*h)[0].next != oracle.NextUse((*h)[0].block)) {
						heap.Pop(h)
					}
					if h.Len() == 0 || (*h)[0].next <= p {
						break // do no harm
					}
					b, m := (*h)[0].block, rev[p]
					pairs = append(pairs, Op{Fetch: b, Evict: m, NeedIdx: needIdx(b), Release: n - p})
					st[b], st[m] = absent, flying
					freeAt[d] = max(freeAt[d], t) + f
					inflight = append(inflight, flight{m, freeAt[d]})
				}
			}
		}
		b := rev[cursor]
		switch {
		case st[b] == present:
			lastUse[b] = cursor
			cursor++
			oracle.Advance(cursor)
			push(b)
			t++
		case st[b] == flying:
			t = inflight[slices.IndexFunc(inflight, func(fl flight) bool { return fl.block == b })].done
		case slices.Min(freeAt) > t:
			t = slices.Min(freeAt)
		default:
			panic("spec: reverse pass wedged")
		}
	}
	var ops []Op
	for b := range st {
		if id := layout.BlockID(b); st[b] != absent {
			ops = append(ops, Op{Fetch: id, Evict: NoBlock, NeedIdx: needIdx(id)})
		}
	}
	slices.SortStableFunc(ops, func(a, b Op) int { return cmp.Compare(a.NeedIdx, b.NeedIdx) })
	for i := len(pairs) - 1; i >= 0; i-- {
		ops = append(ops, pairs[i])
	}
	return ops
}

// candidate is a block pushed onto a disk's heap with its next reverse
// use at that moment.
type candidate struct {
	block layout.BlockID
	next  int
}

// maxHeap orders candidates by next use, furthest first, for
// container/heap.
type maxHeap []candidate

func (h maxHeap) Len() int           { return len(h) }
func (h maxHeap) Less(i, j int) bool { return h[i].next > h[j].next }
func (h maxHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *maxHeap) Push(x any)        { *h = append(*h, x.(candidate)) }
func (h *maxHeap) Pop() any {
	x := (*h)[len(*h)-1]
	*h = (*h)[:len(*h)-1]
	return x
}

// Queues lays a schedule out as revagg's replay reads it: per disk (the
// disk of each op's fetch), its ops' indices in increasing NeedIdx, and
// in schedule order within one NeedIdx.
func Queues(ops []Op, disks int, diskOf func(layout.BlockID) int) [][]int {
	q := make([][]int, disks)
	for k, op := range ops {
		q[diskOf(op.Fetch)] = append(q[diskOf(op.Fetch)], k)
	}
	for _, ks := range q {
		slices.SortStableFunc(ks, func(a, b int) int { return cmp.Compare(ops[a].NeedIdx, ops[b].NeedIdx) })
	}
	return q
}

// Ready states the replay's release rule: the queue positions, in the
// order a free disk issues them, of the released, unissued ops among
// the window positions from its first unissued one. The disk issues
// them until batch of them succeed.
func Ready(n, window int, issued, released func(i int) bool) []int {
	first := 0
	for first < n && issued(first) {
		first++
	}
	var out []int
	for i := first; i < min(n, first+window); i++ {
		if !issued(i) && released(i) {
			out = append(out, i)
		}
	}
	return out
}
