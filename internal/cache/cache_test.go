package cache

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"ppcsim/internal/future"
	"ppcsim/internal/layout"
)

// Drop evicts a present block without starting a fetch, freeing its
// buffer. The policies always evict to make room for a fetch; the tests
// use Drop to shrink the cache between steps.
func (c *Cache) Drop(b layout.BlockID) error {
	if c.st[b] != present {
		return fmt.Errorf("cache: dropping block %d not present", b)
	}
	c.remove(b)
	c.used--
	if c.OnEvict != nil {
		c.OnEvict(b, NoBlock, c.oracle.NextUse(b))
	}
	return nil
}

func mkOracle(ids ...int) *future.Oracle {
	refs := make([]layout.BlockID, len(ids))
	max := 0
	for i, v := range ids {
		refs[i] = layout.BlockID(v)
		if v >= max {
			max = v + 1
		}
	}
	return future.New(refs, max)
}

func TestNewValidation(t *testing.T) {
	o := mkOracle(0)
	if _, err := New(0, 1, o); err == nil {
		t.Error("zero capacity should fail")
	}
	if _, err := New(-5, 1, o); err == nil {
		t.Error("negative capacity should fail")
	}
	c, err := New(3, 1, o)
	if err != nil || c.Capacity() != 3 {
		t.Fatalf("New: %v", err)
	}
}

func TestFetchLifecycle(t *testing.T) {
	o := mkOracle(0, 1, 2, 0, 1, 2)
	c, _ := New(2, 3, o)
	if !c.Absent(0) || c.Present(0) || c.InFlight(0) {
		t.Fatal("initial state wrong")
	}
	if err := c.StartFetch(0, NoBlock); err != nil {
		t.Fatal(err)
	}
	if !c.InFlight(0) || c.Used() != 1 || c.FreeBuffers() != 1 {
		t.Fatal("in-flight accounting wrong")
	}
	c.CompleteFetch(0)
	if !c.Present(0) || c.Used() != 1 {
		t.Fatal("present accounting wrong")
	}
	if err := c.StartFetch(1, NoBlock); err != nil {
		t.Fatal(err)
	}
	c.CompleteFetch(1)
	// Cache now full: fetch of 2 needs a victim.
	if err := c.StartFetch(2, NoBlock); err == nil {
		t.Fatal("full-cache fetch without victim should fail")
	}
	if err := c.StartFetch(2, 1); err != nil {
		t.Fatal(err)
	}
	if c.Present(1) || !c.Absent(1) {
		t.Fatal("victim must become unavailable at fetch start")
	}
	c.CompleteFetch(2)
	if !c.Present(2) || !c.Present(0) {
		t.Fatal("final contents wrong")
	}
}

func TestIllegalTransitions(t *testing.T) {
	o := mkOracle(0, 1)
	c, _ := New(2, 2, o)
	if err := c.StartFetch(0, 1); err == nil {
		t.Error("eviction of absent victim should fail")
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(c.StartFetch(0, NoBlock))
	if err := c.StartFetch(0, NoBlock); err == nil {
		t.Error("double fetch should fail")
	}
	c.CompleteFetch(0)
	if err := c.StartFetch(1, 0); err != nil {
		t.Fatal(err)
	}
	// Victim 0 is absent now; completing 1 then evicting 0 again fails.
	c.CompleteFetch(1)
	if err := c.StartFetch(0, 0); err == nil {
		t.Error("evicting an absent block should fail")
	}
}

func TestCompleteFetchPanicsWhenNotInFlight(t *testing.T) {
	o := mkOracle(0)
	c, _ := New(1, 1, o)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	c.CompleteFetch(0)
}

func TestReferencePanicsWhenAbsent(t *testing.T) {
	o := mkOracle(0)
	c, _ := New(1, 1, o)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	c.Reference(0)
}

func TestFurthestEvictable(t *testing.T) {
	// Sequence: 0 1 2 0 1 2 ... next uses at positions 0,1,2.
	o := mkOracle(0, 1, 2, 0, 1, 2)
	c, _ := New(3, 3, o)
	for b := 0; b < 3; b++ {
		if err := c.StartFetch(layout.BlockID(b), NoBlock); err != nil {
			t.Fatal(err)
		}
		c.CompleteFetch(layout.BlockID(b))
	}
	if v, use := c.FurthestEvictable(); v != 2 || use != 2 {
		t.Fatalf("furthest = %d@%d, want 2@2", v, use)
	}
	// Consume position 0 (block 0): its next use moves to 3, making it
	// the furthest.
	c.Reference(0)
	o.Advance(1)
	c.Touched(0)
	if v, use := c.FurthestEvictable(); v != 0 || use != 3 {
		t.Fatalf("furthest = %d@%d, want 0@3", v, use)
	}
	// In-flight blocks are not evictable: evict 0 for a refetch of... use
	// Drop to empty and check NoBlock.
	for b := 0; b < 3; b++ {
		if err := c.Drop(layout.BlockID(b)); err != nil {
			t.Fatal(err)
		}
	}
	if v, _ := c.FurthestEvictable(); v != NoBlock {
		t.Fatalf("empty cache furthest = %d, want NoBlock", v)
	}
}

func TestDropErrors(t *testing.T) {
	o := mkOracle(0)
	c, _ := New(1, 1, o)
	if err := c.Drop(0); err == nil {
		t.Error("dropping absent block should fail")
	}
}

func TestHitMissCounters(t *testing.T) {
	o := mkOracle(0, 0, 1)
	c, _ := New(2, 2, o)
	c.Miss()
	if err := c.StartFetch(0, NoBlock); err != nil {
		t.Fatal(err)
	}
	c.CompleteFetch(0)
	c.Reference(0)
	c.Reference(0)
	if c.Hits() != 2 || c.Misses() != 1 {
		t.Errorf("hits=%d misses=%d", c.Hits(), c.Misses())
	}
}

// TestCacheInvariantsRandomOps drives the cache with random legal
// operations and checks the capacity invariant and furthest-evictable
// correctness against a naive scan at every step.
func TestCacheInvariantsRandomOps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const nBlocks = 12
		n := 400
		refs := make([]layout.BlockID, n)
		for i := range refs {
			refs[i] = layout.BlockID(rng.Intn(nBlocks))
		}
		o := future.New(refs, nBlocks)
		capacity := 2 + rng.Intn(5)
		c, _ := New(capacity, nBlocks, o)
		var flying []layout.BlockID
		cursor := 0
		for step := 0; step < 300; step++ {
			switch rng.Intn(4) {
			case 0: // start a fetch of a random absent block
				b := layout.BlockID(rng.Intn(nBlocks))
				if !c.Absent(b) {
					continue
				}
				victim := NoBlock
				if c.FreeBuffers() == 0 {
					victim, _ = c.FurthestEvictable()
					if victim == NoBlock {
						continue
					}
				}
				if err := c.StartFetch(b, victim); err != nil {
					t.Logf("StartFetch: %v", err)
					return false
				}
				flying = append(flying, b)
			case 1: // complete a random in-flight fetch
				if len(flying) == 0 {
					continue
				}
				i := rng.Intn(len(flying))
				b := flying[i]
				flying = append(flying[:i], flying[i+1:]...)
				c.CompleteFetch(b)
			case 2: // advance the cursor
				if cursor >= n {
					continue
				}
				b := refs[cursor]
				cursor++
				o.Advance(cursor)
				c.Touched(b)
			case 3: // verify furthest-evictable against a naive scan
				want, wantUse := NoBlock, -1
				for blk := 0; blk < nBlocks; blk++ {
					b := layout.BlockID(blk)
					if !c.Present(b) {
						continue
					}
					u := o.NextUse(b)
					if u > wantUse {
						want, wantUse = b, u
					}
				}
				got, gotUse := c.FurthestEvictable()
				if want == NoBlock {
					if got != NoBlock {
						return false
					}
					continue
				}
				// Ties on next-use position are impossible for distinct
				// blocks except at Never; accept any Never block.
				if gotUse != wantUse {
					t.Logf("furthest use %d, want %d", gotUse, wantUse)
					return false
				}
				if wantUse != future.Never && got != want {
					t.Logf("furthest block %d, want %d", got, want)
					return false
				}
			}
			if c.Used() > c.Capacity() {
				t.Logf("capacity exceeded: %d > %d", c.Used(), c.Capacity())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
