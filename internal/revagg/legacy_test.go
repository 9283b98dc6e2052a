package revagg

import (
	"fmt"
	"sort"

	"ppcsim/internal/cache"
	"ppcsim/internal/engine"
	"ppcsim/internal/future"
	"ppcsim/internal/layout"
	"ppcsim/internal/policy"
)

// legacyPolicy is the reference forward replay the differential tests
// compare Policy against: per-disk queues of op indices, a pending-fetch
// map per block, and a poll that tests every position of each free
// disk's scan window for issued and released. It shares BuildSchedule
// with Policy and counts Stats the same way (ForcedIssues counts only
// scheduled ops OnStall actually issued).
type legacyPolicy struct {
	FetchEstimate float64
	BatchSize     int

	s       *engine.State
	sched   *Schedule
	byDisk  [][]int // per disk: op indices in rank order
	ptr     []int   // per disk: next unconsidered position in byDisk
	issued  []bool  // per op
	pending map[layout.BlockID][]int
	batch   int

	Stat Stats
	// earlyForced counts OnStall issues of an op before its release.
	earlyForced int
}

func (p *legacyPolicy) Name() string { return "reverse-aggressive" }

func (p *legacyPolicy) RequiresFullTrace() {}

func (p *legacyPolicy) Attach(s *engine.State) {
	p.s = s
	f := p.FetchEstimate
	if f <= 0 {
		f = 32
	}
	p.batch = p.BatchSize
	if p.batch <= 0 {
		p.batch = policy.DefaultBatchSize(len(s.Drives))
	}
	sched, err := BuildSchedule(s.Refs, func(b layout.BlockID) int { return s.DiskOf(b) },
		s.Layout.NumBlocks(), len(s.Drives), s.Cache.Capacity(), f, p.batch)
	if err != nil {
		panic(fmt.Sprintf("revagg: %v", err))
	}
	p.sched = sched
	d := len(s.Drives)
	p.byDisk = make([][]int, d)
	p.ptr = make([]int, d)
	p.issued = make([]bool, len(sched.Ops))
	p.pending = make(map[layout.BlockID][]int, len(sched.Ops))
	for k, op := range sched.Ops {
		dd := s.DiskOf(op.Fetch)
		p.byDisk[dd] = append(p.byDisk[dd], k)
		p.pending[op.Fetch] = append(p.pending[op.Fetch], k)
	}
	for d := range p.byDisk {
		q := p.byDisk[d]
		sort.SliceStable(q, func(i, j int) bool {
			return sched.Ops[q[i]].NeedIdx < sched.Ops[q[j]].NeedIdx
		})
	}
}

func (p *legacyPolicy) released(k int) bool {
	op := p.sched.Ops[k]
	return op.Evict == cache.NoBlock || int(op.Release) <= p.s.Cursor()
}

func (p *legacyPolicy) issueOp(k int) bool {
	s := p.s
	op := p.sched.Ops[k]
	if !s.Cache.Absent(op.Fetch) {
		p.issued[k] = true
		p.dropPending(op.Fetch, k)
		return true
	}
	victim := cache.NoBlock
	switch {
	case op.Evict != cache.NoBlock && s.Cache.Present(op.Evict):
		victim = op.Evict
	case s.Cache.FreeBuffers() > 0:
		victim = cache.NoBlock
	default:
		v, vUse := s.Cache.FurthestEvictable()
		if v == cache.NoBlock || vUse <= int(op.NeedIdx) {
			return false
		}
		victim = v
		p.Stat.FallbackEvts++
	}
	s.Issue(op.Fetch, victim)
	p.issued[k] = true
	p.dropPending(op.Fetch, k)
	return true
}

func (p *legacyPolicy) dropPending(b layout.BlockID, k int) {
	lst := p.pending[b]
	for i, kk := range lst {
		if kk == k {
			p.pending[b] = append(lst[:i], lst[i+1:]...)
			return
		}
	}
}

func (p *legacyPolicy) Poll() {
	s := p.s
	for d, dr := range s.Drives {
		if dr.Outstanding() != 0 {
			continue
		}
		budget := p.batch
		q := p.byDisk[d]
		for p.ptr[d] < len(q) && p.issued[q[p.ptr[d]]] {
			p.ptr[d]++
		}
		for off := 0; off < scanWindow && budget > 0; off++ {
			i := p.ptr[d] + off
			if i >= len(q) {
				break
			}
			k := q[i]
			if p.issued[k] || !p.released(k) {
				continue
			}
			if !p.issueOp(k) {
				continue
			}
			budget--
		}
	}
}

func (p *legacyPolicy) OnStall(b layout.BlockID) {
	s := p.s
	if lst := p.pending[b]; len(lst) > 0 {
		k := lst[0]
		op := p.sched.Ops[k]
		victim := cache.NoBlock
		switch {
		case op.Evict != cache.NoBlock && s.Cache.Present(op.Evict):
			victim = op.Evict
		case s.Cache.FreeBuffers() > 0:
			victim = cache.NoBlock
		default:
			victim, _ = s.Cache.FurthestEvictable()
			if victim == cache.NoBlock {
				return
			}
		}
		if !p.released(k) {
			p.earlyForced++
		}
		s.Issue(b, victim)
		p.issued[k] = true
		p.dropPending(b, k)
		p.Stat.ForcedIssues++
		return
	}
	p.Stat.AdHocIssues++
	if s.Cache.FreeBuffers() > 0 {
		s.Issue(b, cache.NoBlock)
		return
	}
	if v, _ := s.Cache.FurthestEvictable(); v != cache.NoBlock {
		s.Issue(b, v)
	}
}

// legacyBuildSchedule is the reference reverse pass the differential
// test TestBuildScheduleMatchesLegacy compares BuildSchedule against: a
// single in-flight list scanned on every time step, a linear search of
// it when the reverse pass stalls, and the schedule assembled in a
// second array. Only the int32 conversions of the narrowed Op differ
// from the original.
func legacyBuildSchedule(refs []layout.BlockID, diskOf func(layout.BlockID) int, nBlocks, disks, capacity int, f float64, batch int) (*Schedule, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("revagg: capacity %d", capacity)
	}
	if f <= 0 {
		return nil, fmt.Errorf("revagg: fetch time estimate %g", f)
	}
	if batch <= 0 {
		return nil, fmt.Errorf("revagg: batch %d", batch)
	}
	n := len(refs)
	rev := make([]layout.BlockID, n)
	for i, b := range refs {
		rev[n-1-i] = b
	}
	oracle := future.New(rev, nBlocks)

	st := make([]uint8, nBlocks) // 0 absent, 1 in-flight, 2 present
	const (
		absent  = 0
		flying  = 1
		present = 2
	)
	used := 0
	lastUse := make([]int, nBlocks) // last consumed reverse index, -1 if none
	for i := range lastUse {
		lastUse[i] = -1
	}
	heaps := make([]evictHeap, disks) // per-disk furthest-next-use heaps
	freeAt := make([]float64, disks)
	type flight struct {
		block layout.BlockID
		done  float64
	}
	var inflight []flight

	// Paired forward ops in emission order: each fetches the block B the
	// reverse pass evicts and evicts the block M it fetches in its place.
	var pairs []Op

	// Incremental first-missing scanner over the reverse sequence.
	scanPos := 0
	nextMissing := func(cursor int) int {
		if scanPos < cursor {
			scanPos = cursor
		}
		for scanPos < n {
			b := rev[scanPos]
			if st[b] == absent {
				return scanPos
			}
			scanPos++
		}
		return n
	}

	needIdxOf := func(b layout.BlockID) int {
		// Forward index served by a forward fetch of b emitted now: b's
		// most recent consumed reverse reference. A block evicted before
		// its first reverse use serves nothing (index n).
		if lastUse[b] < 0 {
			return n
		}
		return n - 1 - lastUse[b]
	}

	push := func(d int, b layout.BlockID) {
		heaps[d].push(evEntry{b, int32(oracle.NextUse(b))})
	}
	furthestOn := func(d int) (layout.BlockID, int) {
		h := &heaps[d]
		for len(*h) > 0 {
			top := (*h)[0]
			if st[top.block] != present || int(top.next) != oracle.NextUse(top.block) {
				h.pop()
				continue
			}
			return top.block, int(top.next)
		}
		return cache.NoBlock, -1
	}

	t := 0.0
	cursor := 0
	for cursor < n {
		// Complete arrived fetches.
		kept := inflight[:0]
		for _, fl := range inflight {
			if fl.done <= t {
				st[fl.block] = present
				push(diskOf(fl.block), fl.block)
			} else {
				kept = append(kept, fl)
			}
		}
		inflight = kept

		// Warmup: while the cache is not full, missing blocks enter
		// instantly — in the forward direction these blocks simply remain
		// cached at the end of the run, so no operation is emitted.
		for used < capacity {
			p := nextMissing(cursor)
			if p >= n {
				break
			}
			b := rev[p]
			st[b] = present
			used++
			push(diskOf(b), b)
		}

		// Batch construction on every free disk.
		if used >= capacity {
			for d := 0; d < disks; d++ {
				if freeAt[d] > t {
					continue
				}
				for k := 0; k < batch; k++ {
					p := nextMissing(cursor)
					if p >= n {
						break
					}
					m := rev[p]
					b, bNext := furthestOn(d)
					if b == cache.NoBlock || bNext <= p {
						break // do no harm on this disk
					}
					// Emit the op: forward fetch of B serving needIdxOf(B),
					// forward eviction of M with release n-1-p+1 = n-p.
					pairs = append(pairs, Op{
						Fetch:   b,
						NeedIdx: int32(needIdxOf(b)),
						Evict:   m,
						Release: int32(n - p),
					})
					st[b] = absent
					if u := oracle.NextUse(b); u < scanPos {
						// B's next reverse use is missing again and may be
						// behind the scanner.
						scanPos = u
					}
					done := freeAt[d]
					if done < t {
						done = t
					}
					done += f
					freeAt[d] = done
					st[m] = flying
					inflight = append(inflight, flight{m, done})
				}
			}
		}

		// Advance: serve the reference if present, otherwise jump to the
		// earliest in-flight completion.
		b := rev[cursor]
		if st[b] == present {
			lastUse[b] = cursor
			cursor++
			oracle.Advance(cursor)
			if st[b] == present {
				push(diskOf(b), b)
			}
			t += 1
			continue
		}
		// Stalled: the block must be in flight (it is the first missing
		// block, so do-no-harm always allows fetching it when a disk
		// frees; in the worst case we wait for a disk).
		nextT := t + 1
		stalledOnFlight := false
		for _, fl := range inflight {
			if fl.block == b {
				nextT = fl.done
				stalledOnFlight = true
				break
			}
		}
		if !stalledOnFlight {
			// Wait for the earliest disk to free so the batch logic can
			// fetch it.
			earliest := freeAt[0]
			for _, fa := range freeAt[1:] {
				if fa < earliest {
					earliest = fa
				}
			}
			if earliest <= t {
				return nil, fmt.Errorf("revagg: reverse pass wedged at reverse index %d (block %d)", cursor, b)
			}
			nextT = earliest
		}
		t = nextT
	}

	// Drain: blocks still cached at the end of the reverse pass are the
	// forward run's initial working set — fetched from a cold cache with
	// no eviction, released immediately, ordered by the reference they
	// serve. The cache holds exactly used blocks, present or in flight.
	ops := make([]Op, 0, used+len(pairs))
	for blk := 0; blk < nBlocks; blk++ {
		if st[blk] == present || st[blk] == flying {
			ops = append(ops, Op{
				Fetch:   layout.BlockID(blk),
				NeedIdx: int32(needIdxOf(layout.BlockID(blk))),
				Evict:   cache.NoBlock,
				Release: 0,
			})
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].NeedIdx < ops[j].NeedIdx })
	// The paired operations follow in reversed emission order (reverse
	// time runs backwards through forward time). An eviction of a block
	// always precedes that block's next scheduled fetch in this order.
	for i := len(pairs) - 1; i >= 0; i-- {
		ops = append(ops, pairs[i])
	}
	return &Schedule{Ops: ops}, nil
}
