package cache

import (
	"math/rand"
	"slices"
	"testing"

	"ppcsim/internal/layout"
)

// TestListMatchesSliceModel drives a List with random pushes and
// removals, never more members than its capacity, and compares every
// walk from the front against a plain slice in push order.
func TestListMatchesSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		capacity, nBlocks := 1+rng.Intn(8), 2+rng.Intn(16)
		l := NewList(capacity, nBlocks)
		var model []layout.BlockID
		for step := 0; step < 100; step++ {
			b := layout.BlockID(rng.Intn(nBlocks))
			if i := slices.Index(model, b); i >= 0 {
				l.Remove(b)
				model = slices.Delete(model, i, i+1)
			} else if len(model) < capacity {
				l.PushBack(b)
				model = append(model, b)
			} else {
				l.Remove(b) // not a member: a no-op
			}
			var walk []layout.BlockID
			for v := l.Front(); v != NoBlock; v = l.Next(v) {
				walk = append(walk, v)
			}
			if !slices.Equal(walk, model) {
				t.Fatalf("trial %d step %d: walk %v, want %v", trial, step, walk, model)
			}
			for v := range nBlocks {
				if l.Contains(layout.BlockID(v)) != slices.Contains(model, layout.BlockID(v)) {
					t.Fatalf("trial %d step %d: Contains(%d) wrong", trial, step, v)
				}
			}
		}
	}
}
