package policy

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ppcsim/internal/cache"
	"ppcsim/internal/engine"
	"ppcsim/internal/layout"
	"ppcsim/internal/obs"
	"ppcsim/internal/trace"
)

// legacyRecency is the recency tracker the used/spec lists replaced: a
// lazily cleaned min-heap with one entry per reference to a present
// block, and an O(blocks) scan of the last-use table when no live entry
// is left. It is the reference TestRecencyMatchesLegacy compares the
// lists against. Two things differ from the original: the heap is
// hand-rolled instead of container/heap (entries carry unique
// positions, so the pop order is the same), and the scan counts the
// victims it picks and the ties it decides by block ID, so the test can
// show it reached them.
type legacyRecency struct {
	s *engine.State

	lastUse []int // per block: most recent reference position, -1 if never
	seen    int   // cursor position up to which lastUse is updated
	h       legacyLRUHeap

	scans, ties int
}

func (r *legacyRecency) attach(s *engine.State) {
	r.s = s
	r.lastUse = make([]int, s.Layout.NumBlocks())
	for i := range r.lastUse {
		r.lastUse[i] = -1
	}
	r.seen = 0
	r.h = r.h[:0]
}

func (r *legacyRecency) track() {
	c := r.s.Cursor()
	for ; r.seen < c; r.seen++ {
		b := r.s.Observed(r.seen)
		r.lastUse[b] = r.seen
		if r.s.Cache.Present(b) {
			r.h.push(legacyLRUEntry{block: b, used: int32(r.seen)})
		}
	}
}

func (r *legacyRecency) noteInserted(b layout.BlockID) {
	if c := r.s.Cursor(); r.lastUse[b] < c {
		r.lastUse[b] = c
	}
}

func (r *legacyRecency) leastRecent() layout.BlockID {
	for len(r.h) > 0 {
		top := r.h[0]
		if !r.s.Cache.Present(top.block) || int(top.used) != r.lastUse[top.block] {
			r.h.pop()
			continue
		}
		return top.block
	}
	v, vUse := cache.NoBlock, 1<<62
	for blk := range r.lastUse {
		b := layout.BlockID(blk)
		if r.s.Cache.Present(b) && r.lastUse[blk] < vUse {
			v, vUse = b, r.lastUse[blk]
		}
	}
	if v != cache.NoBlock {
		r.scans++
		n := 0
		for blk := range r.lastUse {
			if r.s.Cache.Present(layout.BlockID(blk)) && r.lastUse[blk] == vUse {
				n++
			}
		}
		if n > 1 {
			r.ties++
		}
	}
	return v
}

type legacyLRUEntry struct {
	block layout.BlockID
	used  int32
}

// legacyLRUHeap is a min-heap on the last-use position.
type legacyLRUHeap []legacyLRUEntry

func (h *legacyLRUHeap) push(e legacyLRUEntry) {
	s := append(*h, e)
	j := len(s) - 1
	for j > 0 && s[(j-1)/2].used > e.used {
		s[j] = s[(j-1)/2]
		j = (j - 1) / 2
	}
	s[j] = e
	*h = s
}

func (h *legacyLRUHeap) pop() {
	s := *h
	n := len(s) - 1
	v := s[n]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j+1 < n && s[j+1].used < s[j].used {
			j++
		}
		if s[j].used >= v.used {
			break
		}
		s[i] = s[j]
		i = j
	}
	s[i] = v
	*h = s[:n]
}

// The three hint-less policies with their recency calls routed to a
// legacyRecency; everything else is the policy itself.

type legacyDemandLRU struct {
	*DemandLRU
	rec legacyRecency
}

func (d *legacyDemandLRU) Attach(s *engine.State) { d.DemandLRU.Attach(s); d.rec.attach(s) }
func (d *legacyDemandLRU) Poll()                  { d.rec.track() }

func (d *legacyDemandLRU) OnStall(b layout.BlockID) {
	d.rec.track()
	s := d.rec.s
	if s.Cache.FreeBuffers() > 0 {
		s.Issue(b, cache.NoBlock)
		return
	}
	if v := d.rec.leastRecent(); v != cache.NoBlock {
		s.Issue(b, v)
	}
}

type legacyReadahead struct {
	*Readahead
	rec legacyRecency
}

func (r *legacyReadahead) Attach(s *engine.State) { r.Readahead.Attach(s); r.rec.attach(s) }

func (r *legacyReadahead) Poll() {
	r.rec.track()
	prevSeen := r.seen
	r.observe()
	if r.seen == prevSeen || r.runLen < readaheadMinRun || r.depth == 0 {
		return
	}
	s := r.s
	n := s.Layout.NumBlocks()
	for k := 1; k <= r.depth; k++ {
		b := layout.BlockID((int(r.prev) + k*r.delta) % n)
		if !s.Cache.Absent(b) {
			continue
		}
		if s.Cache.FreeBuffers() > 0 {
			s.Issue(b, cache.NoBlock)
		} else if v := r.rec.leastRecent(); v != cache.NoBlock {
			s.Issue(b, v)
		} else {
			return
		}
		r.rec.noteInserted(b)
	}
}

func (r *legacyReadahead) OnStall(b layout.BlockID) {
	r.rec.track()
	r.observe()
	s := r.s
	if s.Cache.FreeBuffers() > 0 {
		s.Issue(b, cache.NoBlock)
		return
	}
	if v := r.rec.leastRecent(); v != cache.NoBlock {
		s.Issue(b, v)
	}
}

type legacyHistory struct {
	*History
	rec legacyRecency
}

func (h *legacyHistory) Attach(s *engine.State) { h.History.Attach(s); h.rec.attach(s) }

func (h *legacyHistory) Poll() {
	h.rec.track()
	prevSeen := h.seen
	h.observe()
	if h.seen == prevSeen || h.seen == 0 {
		return
	}
	trigger := h.s.Observed(h.seen - 1)
	s := h.s
	for i := range h.assoc[trigger] {
		sl := h.assoc[trigger][i]
		if sl.block == cache.NoBlock || sl.count < historyMinCount || !s.Cache.Absent(sl.block) {
			continue
		}
		if s.Cache.FreeBuffers() > 0 {
			s.Issue(sl.block, cache.NoBlock)
		} else if v := h.rec.leastRecent(); v != cache.NoBlock {
			s.Issue(sl.block, v)
		} else {
			return
		}
		h.rec.noteInserted(sl.block)
		h.prefetchedBy[sl.block] = trigger
		h.prefetchedAt[sl.block] = s.Cursor()
	}
}

func (h *legacyHistory) OnStall(b layout.BlockID) {
	h.rec.track()
	h.observe()
	h.prefetchedBy[b] = cache.NoBlock
	s := h.s
	if s.Cache.FreeBuffers() > 0 {
		s.Issue(b, cache.NoBlock)
		return
	}
	if v := h.rec.leastRecent(); v != cache.NoBlock {
		s.Issue(b, v)
	}
}

// recencyTrace builds a trace for the recency comparison: constant-stride
// runs (some wrapping backwards, which readahead prefetches in falling
// block order), recurring block pairs for history to mine, random
// references, and write-behind updates, with varied compute times.
func recencyTrace(rng *rand.Rand, n, blocks int, negStrideOnly bool) *trace.Trace {
	tr := &trace.Trace{Name: "recency", Files: []layout.File{{First: 0, Blocks: blocks}}}
	add := func(b int) {
		tr.Refs = append(tr.Refs, trace.Ref{
			Block:     layout.BlockID((b%blocks + blocks) % blocks),
			ComputeMs: 0.05 + rng.Float64()*3,
			Write:     !negStrideOnly && rng.Intn(8) == 0,
		})
	}
	for len(tr.Refs) < n {
		start := rng.Intn(blocks)
		switch k := rng.Intn(3); {
		case negStrideOnly || k == 0:
			stride := []int{1, 2, -1, -3}[rng.Intn(4)]
			if negStrideOnly {
				stride = -1 - rng.Intn(2)
			}
			for i := 0; i < 4+rng.Intn(40); i++ {
				add(start + i*stride)
			}
		case k == 1:
			for i := 0; i < 2+rng.Intn(6); i++ {
				add(start)
				add(start + 7)
				add(rng.Intn(blocks))
			}
		default:
			for i := 0; i < 1+rng.Intn(20); i++ {
				add(rng.Intn(blocks))
			}
		}
	}
	tr.Refs = tr.Refs[:n]
	return tr
}

// TestRecencyMatchesLegacy runs demand-lru, readahead and history on the
// used/spec lists and on the legacy heap-and-scan tracker and requires
// the same victims, in the same order, with identical results.
func TestRecencyMatchesLegacy(t *testing.T) {
	type pair struct {
		name     string
		mk       func() engine.Policy
		mkLegacy func() (engine.Policy, *legacyRecency)
	}
	pairs := []pair{
		{"demand-lru", func() engine.Policy { return NewDemandLRU() },
			func() (engine.Policy, *legacyRecency) {
				p := &legacyDemandLRU{DemandLRU: NewDemandLRU()}
				return p, &p.rec
			}},
		{"readahead", func() engine.Policy { return NewReadahead() },
			func() (engine.Policy, *legacyRecency) {
				p := &legacyReadahead{Readahead: NewReadahead()}
				return p, &p.rec
			}},
		{"history", func() engine.Policy { return NewHistory() },
			func() (engine.Policy, *legacyRecency) {
				p := &legacyHistory{History: NewHistory()}
				return p, &p.rec
			}},
	}
	var scans, ties, negTies int
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		blocks := 40 + rng.Intn(200)
		negStride := seed%4 == 3
		tr := recencyTrace(rng, 1500+rng.Intn(1500), blocks, negStride)
		for _, p := range pairs {
			for _, disks := range []int{1, 4} {
				for _, k := range []int{3 + rng.Intn(blocks/3), blocks + rng.Intn(8)} {
					for _, streamed := range []bool{false, true} {
						label := fmt.Sprintf("seed=%d/%s/d=%d/k=%d/streamed=%t", seed, p.name, disks, k, streamed)
						run := func(pol engine.Policy) (engine.Result, *obs.Recorder) {
							rec := obs.NewRecorder()
							cfg := engine.Config{Policy: pol, Disks: disks, CacheBlocks: k, Model: fixed(2), Observer: rec}
							if streamed {
								cfg.Source = tr.Source()
								cfg.Hints = &engine.HintSpec{Fraction: 1, Accuracy: 1, Window: 50}
							} else {
								cfg.Trace = tr
							}
							res, err := engine.Run(cfg)
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							return res, rec
						}
						got, gotRec := run(p.mk())
						lp, lrec := p.mkLegacy()
						want, wantRec := run(lp)
						if !reflect.DeepEqual(gotRec.Evictions, wantRec.Evictions) {
							t.Fatalf("%s: victim sequences differ (%d vs %d evictions)",
								label, len(gotRec.Evictions), len(wantRec.Evictions))
						}
						if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotRec, wantRec) {
							t.Fatalf("%s: results differ\nlists:  %+v\nlegacy: %+v", label, got, want)
						}
						scans += lrec.scans
						ties += lrec.ties
						if negStride && p.name == "readahead" {
							negTies += lrec.ties
						}
					}
				}
			}
		}
	}
	// The comparison must reach the fallback and its block-ID tie-break,
	// or it shows nothing about the spec list.
	if scans == 0 || ties == 0 || negTies == 0 {
		t.Fatalf("fallback victims %d, tie-broken %d, on negative strides %d: want all > 0", scans, ties, negTies)
	}
	t.Logf("fallback victims %d, tie-broken %d (%d on negative strides)", scans, ties, negTies)
}
