package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"ppcsim/internal/future"
	"ppcsim/internal/layout"
)

// keyModel is a naive record of the eviction keys: per block the next use
// it was last keyed with (or unkeyed) and when that keying happened. It
// answers the Never case by a linear scan.
type keyModel struct {
	key, at []int
	clock   int
}

const unkeyed = -1

func newKeyModel(nBlocks int) *keyModel {
	m := &keyModel{key: make([]int, nBlocks), at: make([]int, nBlocks)}
	for b := range m.key {
		m.key[b] = unkeyed
	}
	return m
}

func (m *keyModel) keyed(b layout.BlockID, u int) {
	m.clock++
	m.key[b], m.at[b] = u, m.clock
}

// leastRecentNever returns the present Never-keyed block keyed longest
// ago, or NoBlock.
func (m *keyModel) leastRecentNever(c *Cache) layout.BlockID {
	best, at := NoBlock, 0
	for b, k := range m.key {
		if id := layout.BlockID(b); k == future.Never && c.Present(id) && (best == NoBlock || m.at[b] < at) {
			best, at = id, m.at[b]
		}
	}
	return best
}

// TestIndexMatchesLegacyHeap drives the next-use index and the lazy heap
// it replaced through the same random schedules: fetches, completions,
// drops, appends to a sliding oracle, and consumptions touched either by
// the disclosed block or by another one (an undisclosed or inaccurate
// hint, which leaves the disclosed block's key behind the cursor). The
// two must name the same victim whenever the heap's answer is finite or
// the cache is windowed. Only a Never tie in an unwindowed cache depended
// on the heap's layout; there the index must return the least recently
// keyed Never block.
func TestIndexMatchesLegacyHeap(t *testing.T) {
	for _, sliding := range []bool{false, true} {
		for _, window := range []int{0, 1, 8, 40} {
			t.Run(fmt.Sprintf("sliding=%v/window=%d", sliding, window), func(t *testing.T) {
				for seed := int64(0); seed < 60; seed++ {
					diffLegacy(t, seed, sliding, window)
				}
			})
		}
	}
}

func diffLegacy(t *testing.T, seed int64, sliding bool, window int) {
	rng := rand.New(rand.NewSource(seed))
	nBlocks := 3 + rng.Intn(24)
	n := 50 + rng.Intn(400)
	refs := make([]layout.BlockID, n)
	for i := range refs {
		refs[i] = layout.BlockID(rng.Intn(nBlocks))
	}
	var o *future.Oracle
	ring := 1 << (2 + rng.Intn(6)) // 4 .. 128 slots
	if sliding {
		o = future.NewStreaming(nBlocks, ring)
	} else {
		o = future.New(refs, nBlocks)
	}
	capacity := 1 + rng.Intn(nBlocks)
	c, _ := New(capacity, nBlocks, o)
	l, _ := newLegacy(capacity, nBlocks, o)
	if window != 0 {
		c.EnableWindow(window)
		l.EnableWindow(window)
	}
	m := newKeyModel(nBlocks)
	key := func(b layout.BlockID) {
		m.keyed(b, o.NextUse(b))
	}
	filled := n
	if sliding {
		filled = 0
	}
	var pending []layout.BlockID
	fail := func(step int, format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d step %d (cursor %d, filled %d): %s", seed, step, o.Cursor(), filled, fmt.Sprintf(format, args...))
	}
	for step := 0; step < 600; step++ {
		switch op := rng.Intn(6); {
		case op == 0 && sliding && filled < n && filled-o.Cursor() < ring:
			b := refs[filled]
			o.Append(b)
			c.Appended(b, filled)
			if m.key[b] == future.Never && o.NextUse(b) == filled {
				m.key[b] = filled
			}
			filled++
		case op == 1 && o.Cursor() < filled:
			// Consume one position; the process references the disclosed
			// block most of the time, and some other block otherwise.
			ref := refs[o.Cursor()]
			if rng.Intn(4) == 0 {
				ref = layout.BlockID(rng.Intn(nBlocks))
			}
			o.Advance(o.Cursor() + 1)
			if c.Present(ref) {
				key(ref)
			}
			c.Touched(ref)
			l.Touched(ref)
		case op == 2:
			b := layout.BlockID(rng.Intn(nBlocks))
			if !c.Absent(b) {
				continue
			}
			victim := NoBlock
			if c.FreeBuffers() == 0 {
				// Evict the agreed victim or, to reach states the
				// replacement rule alone would not, a random present block.
				victim, _ = c.FurthestEvictable()
				if lv, _ := l.FurthestEvictable(); lv != victim || rng.Intn(2) == 0 {
					victim = randomPresent(rng, c, nBlocks)
				}
				if victim == NoBlock {
					continue
				}
				m.key[victim] = unkeyed
			}
			if err := c.StartFetch(b, victim); err != nil {
				fail(step, "StartFetch: %v", err)
			}
			if err := l.StartFetch(b, victim); err != nil {
				fail(step, "legacy StartFetch: %v", err)
			}
			pending = append(pending, b)
		case op == 3 && len(pending) > 0:
			i := rng.Intn(len(pending))
			b := pending[i]
			pending[i] = pending[len(pending)-1]
			pending = pending[:len(pending)-1]
			c.CompleteFetch(b)
			l.CompleteFetch(b)
			key(b)
		case op == 4:
			if b := randomPresent(rng, c, nBlocks); b != NoBlock && rng.Intn(3) == 0 {
				m.key[b] = unkeyed
				if err := c.Drop(b); err != nil {
					fail(step, "Drop: %v", err)
				}
				if err := l.Drop(b); err != nil {
					fail(step, "legacy Drop: %v", err)
				}
			}
		}
		lb, lu := l.FurthestEvictable()
		gb, gu := c.FurthestEvictable()
		if lu != future.Never || window != 0 {
			if gb != lb || gu != lu {
				fail(step, "index victim %d@%d, legacy heap %d@%d", gb, gu, lb, lu)
			}
			continue
		}
		if want := m.leastRecentNever(c); gu != future.Never || gb != want {
			fail(step, "index victim %d@%d, want least recently keyed Never block %d", gb, gu, want)
		}
	}
}

func randomPresent(rng *rand.Rand, c *Cache, nBlocks int) layout.BlockID {
	start := rng.Intn(nBlocks)
	for i := 0; i < nBlocks; i++ {
		if b := layout.BlockID((start + i) % nBlocks); c.Present(b) {
			return b
		}
	}
	return NoBlock
}
