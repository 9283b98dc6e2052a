package cache

import (
	"testing"

	"ppcsim/internal/future"
	"ppcsim/internal/layout"
	"ppcsim/internal/trace/tracetest"
)

// evictor is the part of the cache an eviction replay drives.
type evictor interface {
	StartFetch(b, victim layout.BlockID) error
	CompleteFetch(b layout.BlockID)
	Touched(b layout.BlockID)
	FurthestEvictable() (layout.BlockID, int)
}

// replayMIN serves refs with demand fetching and furthest-next-use
// replacement over a cache of capacity blocks: every reference touches
// its block, and every miss in a full cache evicts.
func replayMIN(tb testing.TB, c evictor, o *future.Oracle, refs []layout.BlockID, nBlocks, capacity int) {
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
// K = 1280 cache under demand MIN, once with the lazy heap the index
// replaced and once with the next-use index. One op is one replay,
// including the cache's construction but not the oracle's.
func BenchmarkEviction(b *testing.B) {
	const capacity = 1280
	tr := tracetest.Bundled(b, "synth")
	refs := make([]layout.BlockID, len(tr.Refs))
	for i, r := range tr.Refs {
		refs[i] = r.Block
	}
	nBlocks := tr.NumBlocks()
	caches := map[string]func(o *future.Oracle) evictor{
		"legacy": func(o *future.Oracle) evictor { l, _ := newLegacy(capacity, nBlocks, o); return l },
		"index":  func(o *future.Oracle) evictor { c, _ := New(capacity, nBlocks, o); return c },
	}
	for _, name := range []string{"legacy", "index"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				o := future.New(refs, nBlocks)
				b.StartTimer()
				replayMIN(b, caches[name](o), o, refs, nBlocks, capacity)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(refs)), "ns/ref")
		})
	}
}
