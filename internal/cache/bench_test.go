package cache

import (
	"testing"

	"ppcsim/internal/future"
	"ppcsim/internal/layout"
	"ppcsim/internal/trace/tracetest"
)

// replayMIN serves refs with demand fetching and furthest-next-use
// replacement over a cache of capacity blocks: every reference touches
// its block, and every miss in a full cache evicts.
func replayMIN(tb testing.TB, c *Cache, o *future.Oracle, refs []layout.BlockID, nBlocks, capacity int) {
	in := make([]bool, nBlocks)
	used := 0
	for i, b := range refs {
		if !in[b] {
			victim := NoBlock
			if used == capacity {
				victim, _ = c.FurthestEvictable()
				in[victim] = false
			} else {
				used++
			}
			if err := c.StartFetch(b, victim); err != nil {
				tb.Fatal(err)
			}
			c.CompleteFetch(b)
			in[b] = true
		}
		o.Advance(i + 1)
		c.Touched(b)
	}
}

// BenchmarkEviction replays synth, the largest paper trace, through a
// K = 1280 cache under demand MIN. One op is one replay, including the
// cache's construction but not the oracle's.
func BenchmarkEviction(b *testing.B) {
	const capacity = 1280
	tr := tracetest.Bundled(b, "synth")
	refs := make([]layout.BlockID, len(tr.Refs))
	for i, r := range tr.Refs {
		refs[i] = r.Block
	}
	nBlocks := tr.NumBlocks()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		o := future.New(refs, nBlocks)
		b.StartTimer()
		c, _ := New(capacity, nBlocks, o)
		replayMIN(b, c, o, refs, nBlocks, capacity)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(refs)), "ns/ref")
}
