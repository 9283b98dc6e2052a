package policy

import (
	"math/rand"
	"testing"

	"ppcsim/internal/engine"
	"ppcsim/internal/trace/tracetest"
)

// pendingProbe wraps a FixedHorizon and, after every Poll, counts the
// absent blocks whose next use lies in the scanned window [cursor,
// scanned) without that position pending: a missing block the horizon
// rule would never fetch.
type pendingProbe struct {
	*FixedHorizon
	queued     []bool // per position, scratch for one check
	violations int
}

func (p *pendingProbe) Poll() {
	p.FixedHorizon.Poll()
	f, s := p.FixedHorizon, p.s
	if p.queued == nil {
		p.queued = make([]bool, s.Len())
	}
	for _, q := range f.rule.pending {
		p.queued[q] = true
	}
	for q := s.Cursor(); q < f.rule.scanned; q++ {
		if b := s.Ref(q); s.Cache.Absent(b) && s.Oracle.NextUse(b) == q && !p.queued[q] {
			p.violations++
		}
	}
	for _, q := range f.rule.pending {
		p.queued[q] = false
	}
}

// TestFixedHorizonKeepsVictimUsesPending checks that an eviction whose
// victim is next used inside the scanned window leaves that use pending,
// across horizons below and above small random cache sizes (with H > K
// a victim's next use can land inside the window).
func TestFixedHorizonKeepsVictimUsesPending(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := tracetest.Random(rng, tracetest.RandomConfig{MaxBlocks: 200, MaxRefs: 2000})
		tr.CacheBlocks = 2 + rng.Intn(tr.NumBlocks()/4+1)
		for _, h := range []int{8, 62, 500} {
			for _, disks := range []int{1, 4} {
				p := &pendingProbe{FixedHorizon: NewFixedHorizon(h)}
				if _, err := engine.Run(engine.Config{Trace: tr, Policy: p, Disks: disks}); err != nil {
					t.Fatal(err)
				}
				if p.violations != 0 {
					t.Errorf("seed%d/H=%d/%dd: %d missing next uses found unqueued after a poll",
						seed, h, disks, p.violations)
				}
			}
		}
	}
}
