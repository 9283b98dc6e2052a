package policy

// The differential tests of the missing-position index and the recency
// lists: each runs a policy against its statement in internal/spec.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ppcsim/internal/engine"
	"ppcsim/internal/layout"
	"ppcsim/internal/obs"
	"ppcsim/internal/spec"
	"ppcsim/internal/trace"
	"ppcsim/internal/trace/tracetest"
)

// view is what aggressive and forestall read of s, for the spec.
func view(s *engine.State) spec.View {
	return spec.View{Ref: s.Ref, Absent: s.Cache.Absent, DiskOf: s.DiskOf}
}

// specAggressive is Aggressive with its Poll restated by spec.View.Batch:
// every disk free at the Poll's start has a batch of budget, and the
// lowest missing position on a disk with budget left is fetched until do
// no harm refuses. The index Aggressive keeps is never read.
type specAggressive struct{ *Aggressive }

func (a specAggressive) Poll() {
	s := a.s
	budget := make([]int, len(s.Drives))
	for d := range budget {
		if s.DriveFree(d) {
			budget[d] = a.batch
		}
	}
	view(s).Batch(s.Cursor(), scanEnd(s, a.horizon), budget, func(b layout.BlockID, p int) bool {
		ok, _, _ := issueWithVictim(s, b, p)
		return ok
	})
}

func (a specAggressive) OnStall(b layout.BlockID) { demandFetch(a.s, b) }

// insertCounter wraps an Aggressive and counts the evictions whose
// victim is next used behind its disk's classification frontier: the
// case the index's insertion exists for.
type insertCounter struct {
	*Aggressive
	inserts int
}

func (c *insertCounter) Attach(s *engine.State) {
	c.Aggressive.Attach(s)
	s.Cache.OnEvict = func(victim, _ layout.BlockID, nextUse int) {
		if nextUse < c.idx.disks[s.DiskOf(victim)].scanned {
			c.inserts++
		}
	}
}

// TestAggressiveMatchesLegacy checks the per-disk missing lists against
// the batch rule's statement over random and write-bearing traces, disk
// counts, lookahead windows, and materialized and streamed runs.
func TestAggressiveMatchesLegacy(t *testing.T) {
	var traces []*trace.Trace
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := tracetest.Random(rng, tracetest.RandomConfig{MaxBlocks: 400, MaxRefs: 3000, RandomPlacement: true})
		// Keep the cache well below the block count so aggressive evicts.
		tr.CacheBlocks = 2 + rng.Intn(tr.NumBlocks()/3)
		traces = append(traces, tr)
	}
	traces = append(traces, mixedTrace(3000, 300, true, 3), loopTrace(110, 20, 1.0, 100))
	inserts := 0
	for ti, tr := range traces {
		for _, disks := range []int{1, 2, 4, 8, 16} {
			for _, window := range []int{0, 64, 1000} {
				if window >= len(tr.Refs) {
					continue
				}
				for _, streamed := range []bool{false, true} {
					if streamed && window == 0 {
						continue // streaming needs a bounded window
					}
					cfg := func(p engine.Policy) engine.Config {
						c := engine.Config{Policy: p, Disks: disks, Trace: tr}
						if window != 0 {
							c.Hints = &engine.HintSpec{Fraction: 1, Accuracy: 1, Window: window}
						}
						if streamed {
							c.Trace, c.Source = nil, tr.Source()
						}
						return c
					}
					name := fmt.Sprintf("trace%d/%dd/w=%d/streamed=%t", ti, disks, window, streamed)
					want, err := engine.Run(cfg(specAggressive{NewAggressive(0)}))
					if err != nil {
						t.Fatalf("%s spec: %v", name, err)
					}
					p := &insertCounter{Aggressive: NewAggressive(0)}
					got, err := engine.Run(cfg(p))
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: result differs\n got  %+v\n want %+v", name, got, want)
					}
					inserts += p.inserts
				}
			}
		}
	}
	if inserts == 0 {
		t.Error("no eviction inserted a use behind a frontier; the insertion is not exercised")
	}
}

// specForestall is Forestall with its forecast and batch restated by
// spec: the forecast scans the disk's missing positions in the 2K
// window, and a triggered batch is spec.View.Batch with only that disk's
// budget. Everything else (F' estimation, the horizon rule, the recheck
// schedule, OnStall) is Forestall's; the list bookkeeping its
// noteEviction still does is never read.
type specForestall struct{ *Forestall }

func (f specForestall) Poll() {
	f.sampleCPU()
	f.rule.poll(f.s, f.noteEviction)
	s := f.s
	c := s.Cursor()
	for d := range s.Drives {
		if !s.DriveFree(d) || c < f.nextCheck[d] {
			continue
		}
		limit := scanEnd(s, f.window)
		trigger, minSlack := view(s).Forecast(c, limit, d, f.fprime(d))
		if !trigger {
			f.nextCheck[d] = c + min(max(minSlack, 1), recheckCap)
			continue
		}
		budget := make([]int, len(s.Drives))
		budget[d] = f.batch
		view(s).Batch(c, limit, budget, func(b layout.BlockID, p int) bool {
			ok, victim, _ := issueWithVictim(s, b, p)
			if ok {
				f.noteEviction(victim)
			}
			return ok
		})
		f.nextCheck[d] = c
	}
}

// rewindCounter wraps a Forestall and counts the evictions whose victim
// is next used behind its disk's classification frontier: the case the
// index's eviction insertion exists for.
type rewindCounter struct {
	*Forestall
	rewinds int
}

func (r *rewindCounter) Attach(s *engine.State) {
	r.Forestall.Attach(s)
	s.Cache.OnEvict = func(victim, _ layout.BlockID, nextUse int) {
		if nextUse < r.idx.disks[s.DiskOf(victim)].scanned {
			r.rewinds++
		}
	}
}

// forestallVariant is one knob setting of the differential sweep.
type forestallVariant struct {
	window   int // Hints.Window; 0 with acc 1 runs without hints
	acc      float64
	fixedF   float64
	streamed bool
}

func (v forestallVariant) String() string {
	return fmt.Sprintf("w=%d/acc=%g/F=%g/streamed=%t", v.window, v.acc, v.fixedF, v.streamed)
}

// runForestallPair runs Forestall and specForestall on one input and
// reports any difference in Result. It returns the evictions
// rewindCounter counted.
func runForestallPair(t *testing.T, name string, tr *trace.Trace, disks int, v forestallVariant) int {
	t.Helper()
	cfg := func(p engine.Policy) engine.Config {
		c := engine.Config{Policy: p, Disks: disks}
		if v.window != 0 || v.acc != 1 {
			c.Hints = &engine.HintSpec{Fraction: 1, Accuracy: v.acc, Seed: 5, Window: v.window}
		}
		if v.streamed {
			c.Source = tr.Source()
		} else {
			c.Trace = tr
		}
		return c
	}
	want, err := engine.Run(cfg(specForestall{&Forestall{FixedF: v.fixedF}}))
	if err != nil {
		t.Fatalf("%s spec: %v", name, err)
	}
	p := &rewindCounter{Forestall: &Forestall{FixedF: v.fixedF}}
	got, err := engine.Run(cfg(p))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: result differs\n got  %+v\n want %+v", name, got, want)
	}
	return p.rewinds
}

// TestForestallMatchesLegacy checks the incremental forecast against its
// statement over random traces, disk counts, lookahead windows, hint
// accuracy, fixed F' values (below 1, moderate, and one whose rank
// products pass the forecast stop's 2^31 guard), and materialized and
// streamed runs.
func TestForestallMatchesLegacy(t *testing.T) {
	var traces []*trace.Trace
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := tracetest.Random(rng, tracetest.RandomConfig{MaxBlocks: 400, MaxRefs: 3000, RandomPlacement: true})
		// Keep the cache well below the block count so forestall evicts.
		tr.CacheBlocks = 2 + rng.Intn(tr.NumBlocks()/3)
		traces = append(traces, tr)
	}
	traces = append(traces, mixedTrace(3000, 300, true, 3))
	var variants []forestallVariant
	for _, w := range []int{0, 64, 1000} {
		for _, acc := range []float64{1, 0.7} {
			for _, fixedF := range []float64{0, 4, 0.25, 1e12} {
				variants = append(variants, forestallVariant{w, acc, fixedF, false})
				if w != 0 {
					variants = append(variants, forestallVariant{w, acc, fixedF, true})
				}
			}
		}
	}
	rewinds := 0
	for ti, tr := range traces {
		for _, disks := range []int{1, 2, 4, 16} {
			for _, v := range variants {
				if v.window >= len(tr.Refs) {
					continue
				}
				rewinds += runForestallPair(t, fmt.Sprintf("trace%d/%dd/%v", ti, disks, v), tr, disks, v)
			}
		}
	}
	if rewinds == 0 {
		t.Error("no eviction rewound a frontier; the rewind is not exercised")
	}
}

// TestForestallRewindMatchesLegacy is the targeted rewind case: a loop
// over 110 blocks with a 100-block cache, so every victim is next used
// within 110 references — inside the forecast window (200 references,
// or a 120-reference hint window), behind the frontier the forecast has
// already classified.
func TestForestallRewindMatchesLegacy(t *testing.T) {
	tr := loopTrace(110, 20, 1.0, 100)
	for _, disks := range []int{2, 4} {
		for _, v := range []forestallVariant{{0, 1, 0, false}, {120, 1, 0, false}, {120, 1, 0, true}} {
			name := fmt.Sprintf("loop/%dd/%v", disks, v)
			if n := runForestallPair(t, name, tr, disks, v); n == 0 {
				t.Errorf("%s: no eviction rewound a frontier", name)
			}
		}
	}
}

// recencyCheck runs a hint-less policy and checks every victim it picks
// against spec.Recency. It keeps the spec in step with what the policy
// sees: the observed references, folded in where the policy folds them
// (first thing in each Poll and OnStall), its speculative fetches (those
// issued inside Poll) and its evictions, which it watches as the run's
// observer.
type recencyCheck struct {
	engine.Policy
	obs.Base
	t      *testing.T
	label  string
	s      *engine.State
	rec    *spec.Recency
	seen   int
	inPoll bool
}

func (c *recencyCheck) Attach(s *engine.State) {
	c.Policy.Attach(s)
	c.s, c.rec, c.seen = s, spec.NewRecency(s.Layout.NumBlocks()), 0
}

func (c *recencyCheck) track() {
	for ; c.seen < c.s.Cursor(); c.seen++ {
		b := c.s.Observed(c.seen)
		c.rec.Referenced(b, c.seen, c.s.Cache.Present(b))
	}
}

func (c *recencyCheck) Poll() {
	c.track()
	c.inPoll = true
	c.Policy.Poll()
	c.inPoll = false
}

func (c *recencyCheck) OnStall(b layout.BlockID) {
	c.track()
	c.Policy.OnStall(b)
}

func (c *recencyCheck) FetchIssued(e obs.FetchEvent) {
	if c.inPoll && !e.Write {
		c.rec.Prefetched(layout.BlockID(e.Block), c.s.Cursor())
	}
}

// Eviction sees the victim after it left the cache, so the spec counts
// it as present.
func (c *recencyCheck) Eviction(e obs.EvictEvent) {
	v := layout.BlockID(e.Victim)
	if want := c.rec.Victim(func(b layout.BlockID) bool { return b == v || c.s.Cache.Present(b) }); v != want {
		c.t.Fatalf("%s: victim %d at position %d, want %d", c.label, v, c.s.Cursor(), want)
	}
	c.rec.Removed(v)
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

// TestRecencyMatchesLegacy runs demand-lru, readahead and history under
// recencyCheck, which holds every victim to the used/spec rule's
// statement, over random write-bearing traces, disk counts, caches below
// and above the block count, and materialized and streamed runs.
func TestRecencyMatchesLegacy(t *testing.T) {
	policies := []struct {
		name string
		mk   func() engine.Policy
	}{
		{"demand-lru", func() engine.Policy { return NewDemandLRU() }},
		{"readahead", func() engine.Policy { return NewReadahead() }},
		{"history", func() engine.Policy { return NewHistory() }},
	}
	var fallbacks, ties, negTies int
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		blocks := 40 + rng.Intn(200)
		negStride := seed%4 == 3
		tr := recencyTrace(rng, 1500+rng.Intn(1500), blocks, negStride)
		for _, p := range policies {
			for _, disks := range []int{1, 4} {
				for _, k := range []int{3 + rng.Intn(blocks/3), blocks + rng.Intn(8)} {
					for _, streamed := range []bool{false, true} {
						c := &recencyCheck{Policy: p.mk(), t: t,
							label: fmt.Sprintf("seed=%d/%s/d=%d/k=%d/streamed=%t", seed, p.name, disks, k, streamed)}
						cfg := engine.Config{Policy: c, Disks: disks, CacheBlocks: k, Model: fixed(2), Observer: c}
						if streamed {
							cfg.Source = tr.Source()
							cfg.Hints = &engine.HintSpec{Fraction: 1, Accuracy: 1, Window: 50}
						} else {
							cfg.Trace = tr
						}
						if _, err := engine.Run(cfg); err != nil {
							t.Fatalf("%s: %v", c.label, err)
						}
						fallbacks += c.rec.Fallbacks
						ties += c.rec.Ties
						if negStride && p.name == "readahead" {
							negTies += c.rec.Ties
						}
					}
				}
			}
		}
	}
	// The runs must reach the spec fallback and its block-ID tie-break,
	// or they show nothing about the spec list.
	if fallbacks == 0 || ties == 0 || negTies == 0 {
		t.Fatalf("fallback victims %d, tie-broken %d, on negative strides %d: want all > 0", fallbacks, ties, negTies)
	}
	t.Logf("fallback victims %d, tie-broken %d (%d on negative strides)", fallbacks, ties, negTies)
}
