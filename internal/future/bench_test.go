package future

import (
	"fmt"
	"math/rand"
	"testing"

	"ppcsim/internal/layout"
	"ppcsim/internal/trace/tracetest"
)

// BenchmarkOracle times a materialized oracle over synth: its build,
// then a full Advance one reference at a time with one NextUse per step
// (the consumed block's next use, which the cache asks on every
// reference). It reports time per reference.
func BenchmarkOracle(b *testing.B) {
	tr := tracetest.Bundled(b, "synth")
	refs := make([]layout.BlockID, len(tr.Refs))
	for i, r := range tr.Refs {
		refs[i] = r.Block
	}
	b.ReportAllocs()
	b.ResetTimer()
	sum := 0
	for i := 0; i < b.N; i++ {
		o := New(refs, tr.NumBlocks())
		for c, blk := range refs {
			o.Advance(c + 1)
			sum += o.NextUse(blk)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(refs)), "ns/ref")
	if sum == 0 {
		b.Fatal("no next uses read")
	}
}

// BenchmarkDiskIndexCursor times walking every disk's positions with a
// DiskCursor, reported per position. On the unwrapped index, built over
// the whole sequence, each disk is walked once from its first position.
// On the sliding index the walk
// follows the engine's pattern: positions are appended a 2048-reference
// window ahead of a cursor that consumes them, and after each append the
// appended disk's cursor resumes and runs to the end of its chain.
func BenchmarkDiskIndexCursor(b *testing.B) {
	const n, nBlocks, window = 1 << 17, 8192, 2048
	rng := rand.New(rand.NewSource(1))
	refs := make([]layout.BlockID, n)
	for i := range refs {
		refs[i] = layout.BlockID(rng.Intn(nBlocks))
	}
	for _, disks := range []int{1, 4, 16} {
		diskOf := func(blk layout.BlockID) int { return int(blk) % disks }
		b.Run(fmt.Sprintf("unwrapped/%dd", disks), func(b *testing.B) {
			x := NewDiskIndex(refs, disks, diskOf)
			b.ReportAllocs()
			b.ResetTimer()
			sum := 0
			for i := 0; i < b.N; i++ {
				for d := 0; d < disks; d++ {
					c := x.Cursor(d)
					for p := c.Pos(); p != Never; p = c.Pos() {
						sum += p
						c.Next()
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/pos")
			if sum == 0 {
				b.Fatal("no positions walked")
			}
		})
		b.Run(fmt.Sprintf("sliding/%dd", disks), func(b *testing.B) {
			diskAt := make([]int, n)
			for p, blk := range refs {
				diskAt[p] = diskOf(blk)
			}
			b.ReportAllocs()
			b.ResetTimer()
			sum := 0
			for i := 0; i < b.N; i++ {
				x := NewSlidingDiskIndex(disks, 2*window)
				curs := make([]DiskCursor, disks)
				for d := range curs {
					curs[d] = x.Cursor(d)
				}
				for p := 0; p < n; p++ {
					if c := p - window; c >= 0 {
						x.AdvancePast(c, diskAt[c])
					}
					d := diskAt[p]
					x.Append(p, d)
					c := &curs[d]
					for q := c.Pos(); q != Never; q = c.Pos() {
						sum += q
						c.Next()
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/pos")
			if sum == 0 {
				b.Fatal("no positions walked")
			}
		})
	}
}
