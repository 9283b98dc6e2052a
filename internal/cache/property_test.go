package cache

import (
	"math/rand"
	"testing"

	"ppcsim/internal/future"
	"ppcsim/internal/layout"
)

// naiveFurthest scans every block linearly for the present block whose
// next reference is furthest in the future — the reference implementation
// of FurthestEvictable.
func naiveFurthest(c *Cache, o *future.Oracle, nBlocks int) (layout.BlockID, int) {
	best, bestUse := NoBlock, -1
	for b := 0; b < nBlocks; b++ {
		id := layout.BlockID(b)
		if !c.Present(id) {
			continue
		}
		if u := o.NextUse(id); u > bestUse {
			best, bestUse = id, u
		}
	}
	if best == NoBlock {
		return NoBlock, -1
	}
	return best, bestUse
}

// TestFurthestEvictableMatchesNaiveScan runs random fetch/evict/advance
// schedules and checks the cache's eviction choice against the linear
// scan after every step. Distinct blocks can only tie at Never (each
// position references one block), so comparing the next-use value — and
// the block itself when the value is finite — is exact.
func TestFurthestEvictableMatchesNaiveScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		nBlocks := 2 + rng.Intn(20)
		n := 20 + rng.Intn(300)
		refs := make([]layout.BlockID, n)
		for i := range refs {
			refs[i] = layout.BlockID(rng.Intn(nBlocks))
		}
		o := future.New(refs, nBlocks)
		capacity := 2 + rng.Intn(nBlocks)
		c, err := New(capacity, nBlocks, o)
		if err != nil {
			t.Fatal(err)
		}
		var pending []layout.BlockID // issued fetches not yet completed
		for step := 0; step < 200; step++ {
			switch op := rng.Intn(4); {
			case op == 0 && o.Cursor() < n:
				// Advance the cursor over one reference; present blocks the
				// cursor touches must be re-pushed, as the engine does.
				b := refs[o.Cursor()]
				o.Advance(o.Cursor() + 1)
				c.Touched(b)
			case op == 1:
				// Start a fetch of a random absent block, evicting when full.
				b := layout.BlockID(rng.Intn(nBlocks))
				if !c.Absent(b) {
					continue
				}
				victim := NoBlock
				if c.FreeBuffers() == 0 {
					victim, _ = c.FurthestEvictable()
					if victim == NoBlock {
						continue // every buffer reserved by in-flight fetches
					}
				}
				if err := c.StartFetch(b, victim); err != nil {
					t.Fatalf("trial %d step %d: %v", trial, step, err)
				}
				pending = append(pending, b)
			case op == 2 && len(pending) > 0:
				// Complete a random in-flight fetch.
				i := rng.Intn(len(pending))
				c.CompleteFetch(pending[i])
				pending[i] = pending[len(pending)-1]
				pending = pending[:len(pending)-1]
			case op == 3:
				// Drop a random present block.
				b := layout.BlockID(rng.Intn(nBlocks))
				if c.Present(b) {
					if err := c.Drop(b); err != nil {
						t.Fatal(err)
					}
				}
			}
			gotB, gotU := c.FurthestEvictable()
			wantB, wantU := naiveFurthest(c, o, nBlocks)
			if gotU != wantU {
				t.Fatalf("trial %d step %d: furthest next-use = %d (block %d), want %d (block %d)",
					trial, step, gotU, gotB, wantU, wantB)
			}
			if gotB != NoBlock {
				if !c.Present(gotB) {
					t.Fatalf("trial %d step %d: victim %d not present", trial, step, gotB)
				}
				if o.NextUse(gotB) != gotU {
					t.Fatalf("trial %d step %d: stale next-use %d for victim %d", trial, step, gotU, gotB)
				}
				if gotU != future.Never && gotB != wantB {
					t.Fatalf("trial %d step %d: victim %d, want %d (finite next-use must be unique)",
						trial, step, gotB, wantB)
				}
			}
		}
	}
}
