package revagg

import (
	"fmt"
	"sort"

	"ppcsim/internal/cache"
	"ppcsim/internal/engine"
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
	return op.Evict == cache.NoBlock || op.Release <= p.s.Cursor()
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
		if v == cache.NoBlock || vUse <= op.NeedIdx {
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
