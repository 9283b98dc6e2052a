package cache

import (
	"testing"

	"ppcsim/internal/future"
	"ppcsim/internal/layout"
)

// prime fetches and completes each block in order, so the recency order
// is exactly the argument order (earliest = least recent).
func prime(t *testing.T, c *Cache, ids ...int) {
	t.Helper()
	for _, b := range ids {
		if err := c.StartFetch(layout.BlockID(b), NoBlock); err != nil {
			t.Fatal(err)
		}
		c.CompleteFetch(layout.BlockID(b))
	}
}

// TestWindowedEvictionFallsBackToLRU: when the furthest next use lies
// at or beyond the lookahead horizon, the windowed cache stops trusting
// the furthest-known rule and victimizes the least recently used of the
// beyond-horizon blocks, reporting future.Never for its next use.
func TestWindowedEvictionFallsBackToLRU(t *testing.T) {
	// Next uses: block 0 at position 0, block 2 at 1, block 3 at 2.
	o := mkOracle(0, 2, 3)
	c, _ := New(3, 4, o)
	c.EnableWindow(1)
	if !c.Windowed() {
		t.Fatal("EnableWindow did not stick")
	}
	prime(t, c, 2, 3, 0) // recency order: 2 oldest, then 3, then 0

	// Horizon is cursor+1 = 1: only block 0 is in the window. The
	// unwindowed rule would pick block 3 (furthest, next use 2); the
	// windowed rule must pick block 2 — the least recently used of the
	// beyond-horizon blocks {2, 3}.
	b, u := c.FurthestEvictable()
	if b != 2 || u != future.Never {
		t.Fatalf("FurthestEvictable = (%d, %d), want (2, Never)", b, u)
	}

	// Advancing to position 1 pulls block 2 inside the horizon (next use
	// 1 < cursor 1 + window 1 = 2); it must leave the LRU fallback
	// and block 3 becomes the fallback victim.
	o.Advance(1)
	c.Touched(0)
	b, u = c.FurthestEvictable()
	if b != 3 || u != future.Never {
		t.Fatalf("after advance, FurthestEvictable = (%d, %d), want (3, Never)", b, u)
	}
}

// TestWindowedEvictionMatchesUnwindowedInsideWindow: while every present
// block's next use is inside the window the furthest-known rule applies
// unchanged, so a window covering the whole future reproduces the
// unwindowed cache exactly.
func TestWindowedEvictionMatchesUnwindowedInsideWindow(t *testing.T) {
	mk := func(window int) *Cache {
		c, _ := New(3, 4, mkOracle(0, 2, 3))
		if window != 0 {
			c.EnableWindow(window)
		}
		prime(t, c, 2, 3, 0)
		return c
	}
	plain := mk(0)
	wide := mk(10)
	pb, pu := plain.FurthestEvictable()
	wb, wu := wide.FurthestEvictable()
	if pb != wb || pu != wu {
		t.Fatalf("wide window diverged: (%d, %d) vs (%d, %d)", wb, wu, pb, pu)
	}
	if pb != 3 || pu != 2 {
		t.Fatalf("furthest-known rule picked (%d, %d), want (3, 2)", pb, pu)
	}
}

// TestWindowedLRURefreshOnTouch: referencing a block refreshes its
// recency, protecting it from the LRU fallback.
func TestWindowedLRURefreshOnTouch(t *testing.T) {
	// Blocks 1 and 2 are never referenced again; block 0 at position 0.
	o := future.New([]layout.BlockID{0}, 3)
	c, _ := New(3, 3, o)
	c.EnableWindow(1)
	prime(t, c, 1, 2, 0)
	// Touch block 1 (present, next use Never): it moves to most recent.
	c.Touched(1)
	b, u := c.FurthestEvictable()
	if b != 2 || u != future.Never {
		t.Fatalf("FurthestEvictable = (%d, %d), want (2, Never) after touching 1", b, u)
	}
}

// TestWindowNoneEvictsPureLRU: EnableWindow clamps negative windows to
// zero lookahead — nothing is ever within the window, so eviction is
// pure LRU over the present blocks.
func TestWindowNoneEvictsPureLRU(t *testing.T) {
	o := mkOracle(0, 1, 2, 0, 1, 2)
	c, _ := New(3, 3, o)
	c.EnableWindow(-1)
	prime(t, c, 1, 0, 2)
	b, u := c.FurthestEvictable()
	if b != 1 || u != future.Never {
		t.Fatalf("FurthestEvictable = (%d, %d), want (1, Never): LRU ignores next uses", b, u)
	}
}
