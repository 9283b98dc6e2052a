package policy

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ppcsim/internal/cache"
	"ppcsim/internal/engine"
	"ppcsim/internal/future"
	"ppcsim/internal/layout"
	"ppcsim/internal/trace"
	"ppcsim/internal/trace/tracetest"
)

// legacyAggressive is the reference batch loop the differential test
// compares Aggressive against: a global first-missing scanner, gpos,
// that walks every position past the cursor and rewinds to an evicted
// victim's next use, instead of the per-disk missing lists. It shares
// Attach's defaults with Aggressive; the index Aggressive keeps is never
// read.
type legacyAggressive struct {
	*Aggressive

	// Per-disk batch budget for the current Poll, initialized lazily:
	// stamp[d] != epoch means disk d has not been consulted this Poll.
	rem   []int
	stamp []int
	epoch int

	// gpos is the global first-missing scanner: every position before it
	// was either passed by the cursor or referenced a block that was
	// present or in flight when scanned.
	gpos int
}

func (l *legacyAggressive) Attach(s *engine.State) {
	l.Aggressive.Attach(s)
	l.rem = make([]int, len(s.Drives))
	l.stamp = make([]int, len(s.Drives))
	l.epoch, l.gpos = 0, 0
}

// globalFirstMissing returns the first position >= the cursor (on any
// disk) whose block is missing, or limit if there is none before limit.
func (l *legacyAggressive) globalFirstMissing(limit int) int {
	s := l.s
	p := max(l.gpos, s.Cursor())
	for p < limit && !s.Cache.Absent(s.Ref(p)) {
		p++
	}
	l.gpos = p
	return p
}

// invalidate rewinds the scanner after block v was evicted and returns
// v's next use, or future.Never when no state changed.
func (l *legacyAggressive) invalidate(v layout.BlockID) int {
	if v == cache.NoBlock {
		return future.Never
	}
	u := l.s.Oracle.NextUse(v)
	if u < l.gpos {
		l.gpos = u
	}
	return u
}

func (l *legacyAggressive) Poll() {
	s := l.s
	limit := scanEnd(s, l.horizon)
	if s.Cache.FreeBuffers() == 0 {
		p := l.globalFirstMissing(limit)
		if p >= limit {
			return
		}
		if d := s.DiskOf(s.Ref(p)); s.DriveFree(d) {
			if _, vUse := s.Cache.FurthestEvictable(); vUse <= p {
				return
			}
		}
	}
	if !s.AnyDriveFree() {
		return
	}
	l.epoch++
	p := l.globalFirstMissing(limit)
	for {
		d := -1
		for ; p < limit; p++ {
			b := s.Ref(p)
			if !s.Cache.Absent(b) {
				continue
			}
			d = s.DiskOf(b)
			if l.stamp[d] != l.epoch {
				l.stamp[d] = l.epoch
				l.rem[d] = 0
				if s.DriveFree(d) {
					l.rem[d] = l.batch
				}
			}
			if l.rem[d] > 0 {
				break
			}
		}
		if p >= limit {
			break
		}
		ok, victim := issueWithVictim(s, s.Ref(p), p)
		if !ok {
			break
		}
		l.rem[d]--
		if u := l.invalidate(victim); u < p {
			p = u
		}
	}
}

func (l *legacyAggressive) OnStall(b layout.BlockID) {
	s := l.s
	if s.Cache.FreeBuffers() > 0 {
		s.Issue(b, cache.NoBlock)
		return
	}
	v, _ := s.Cache.FurthestEvictable()
	if v == cache.NoBlock {
		return
	}
	s.Issue(b, v)
	l.invalidate(v)
}

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
// the global scanner over random and write-bearing traces, disk counts,
// lookahead windows, and materialized and streamed runs.
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
					want, err := engine.Run(cfg(&legacyAggressive{Aggressive: NewAggressive(0)}))
					if err != nil {
						t.Fatalf("%s legacy: %v", name, err)
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
