package policy

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ppcsim/internal/engine"
	"ppcsim/internal/layout"
	"ppcsim/internal/trace"
	"ppcsim/internal/trace/tracetest"
)

// legacyForestall is the reference forecast the differential tests
// compare Forestall against: every forecast and every batch rescans all
// of the disk's positions in the window, testing each block for absence,
// instead of walking the incremental missing list. It shares everything
// else (F' estimation, the horizon rule, OnStall) with Forestall. The
// list bookkeeping Forestall's noteEviction still does is never read.
type legacyForestall struct {
	*Forestall
}

func (l legacyForestall) Poll() {
	f := l.Forestall
	f.sampleCPU()
	f.pollHorizonRule()
	s := f.s
	c := s.Cursor()
	for d := range s.Drives {
		if !s.DriveFree(d) || c < f.nextCheck[d] {
			continue
		}
		l.forecast(d)
	}
}

// scan calls fn on disk d's disclosed positions in [cursor, limit) in
// ascending order until fn returns false. It skips positions holding
// the phantom block, as the disk index does.
func (l legacyForestall) scan(d int, fn func(p int) bool) {
	s := l.s
	phantom := s.Layout.NumBlocks()
	for p := s.Cursor(); p < scanEnd(s, l.window); p++ {
		if b := s.Ref(p); int(b) < phantom && s.DiskOf(b) == d && !fn(p) {
			return
		}
	}
}

func (l legacyForestall) forecast(d int) {
	f, s := l.Forestall, l.s
	c := s.Cursor()
	fp := f.fprime(d)
	i := 0
	minSlack := 1 << 30
	trigger := false
	l.scan(d, func(p int) bool {
		if !s.Cache.Absent(s.Ref(p)) {
			return true
		}
		i++
		slack := (p - c) - int(float64(i)*fp)
		if slack < minSlack {
			minSlack = slack
		}
		if slack < 0 {
			trigger = true
			return false
		}
		return true
	})
	if !trigger {
		wait := minSlack
		if wait < 1 {
			wait = 1
		}
		if wait > recheckCap {
			wait = recheckCap
		}
		f.nextCheck[d] = c + wait
		return
	}
	l.issueBatch(d)
	f.nextCheck[d] = c
}

func (l legacyForestall) issueBatch(d int) {
	f, s := l.Forestall, l.s
	left := f.batch
	l.scan(d, func(p int) bool {
		if left <= 0 {
			return false
		}
		b := s.Ref(p)
		if !s.Cache.Absent(b) {
			return true
		}
		ok, victim := issueWithVictim(s, b, p)
		if !ok {
			return false
		}
		f.noteEviction(victim)
		left--
		return true
	})
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

// runForestallPair runs Forestall and legacyForestall on one input and
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
	want, err := engine.Run(cfg(legacyForestall{&Forestall{FixedF: v.fixedF}}))
	if err != nil {
		t.Fatalf("%s legacy: %v", name, err)
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

// TestForestallMatchesLegacy checks the incremental forecast against the
// full rescan over random traces, disk counts, lookahead windows, hint
// accuracy, a fixed F', and materialized and streamed runs.
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
			for _, fixedF := range []float64{0, 4} {
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
