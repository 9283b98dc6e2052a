package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"ppcsim/internal/future"
	"ppcsim/internal/layout"
	"ppcsim/internal/spec"
)

// TestIndexMatchesLegacyHeap drives the next-use index and its
// statement, spec.Eviction, through the same random schedules: fetches,
// completions, drops, appends to a sliding oracle, and consumptions
// touched either by the disclosed block or by another one (an
// undisclosed or inaccurate hint, which leaves the disclosed block's key
// behind the cursor). The two must name the same victim and next use at
// every step, Never ties included.
func TestIndexMatchesLegacyHeap(t *testing.T) {
	for _, sliding := range []bool{false, true} {
		for _, window := range []int{0, 1, 8, 40} {
			t.Run(fmt.Sprintf("sliding=%v/window=%d", sliding, window), func(t *testing.T) {
				for seed := int64(0); seed < 60; seed++ {
					diffSpec(t, seed, sliding, window)
				}
			})
		}
	}
}

func diffSpec(t *testing.T, seed int64, sliding bool, window int) {
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
	e := spec.NewEviction(nBlocks, -1)
	if window != 0 {
		c.EnableWindow(window)
		e = spec.NewEviction(nBlocks, window)
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
	victim := func(step int) layout.BlockID {
		t.Helper()
		gb, gu := c.FurthestEvictable()
		if wb, wu := e.Victim(o.Cursor(), o.NextUse); gb != wb || gu != wu {
			fail(step, "index victim %d@%d, spec %d@%d", gb, gu, wb, wu)
		}
		return gb
	}
	for step := 0; step < 600; step++ {
		switch op := rng.Intn(6); {
		case op == 0 && sliding && filled < n && filled-o.Cursor() < ring:
			b := refs[filled]
			o.Append(b)
			c.Appended(b, filled)
			e.Appended(b, filled, o.NextUse(b))
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
				e.Keyed(ref, o.NextUse(ref))
			}
			c.Touched(ref)
		case op == 2:
			b := layout.BlockID(rng.Intn(nBlocks))
			if !c.Absent(b) {
				continue
			}
			v := NoBlock
			if c.FreeBuffers() == 0 {
				// Evict the rule's victim or, to reach states the
				// replacement rule alone would not, a random present block.
				if v = victim(step); rng.Intn(2) == 0 {
					v = randomPresent(rng, c, nBlocks)
				}
				if v == NoBlock {
					continue
				}
				e.Removed(v)
			}
			if err := c.StartFetch(b, v); err != nil {
				fail(step, "StartFetch: %v", err)
			}
			pending = append(pending, b)
		case op == 3 && len(pending) > 0:
			i := rng.Intn(len(pending))
			b := pending[i]
			pending[i] = pending[len(pending)-1]
			pending = pending[:len(pending)-1]
			c.CompleteFetch(b)
			e.Keyed(b, o.NextUse(b))
		case op == 4:
			if b := randomPresent(rng, c, nBlocks); b != NoBlock && rng.Intn(3) == 0 {
				e.Removed(b)
				if err := c.Drop(b); err != nil {
					fail(step, "Drop: %v", err)
				}
			}
		}
		victim(step)
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
