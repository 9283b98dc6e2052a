package revagg

import (
	"fmt"
	"testing"

	"ppcsim/internal/engine"
	"ppcsim/internal/layout"
	"ppcsim/internal/policy"
	"ppcsim/internal/trace/tracetest"
)

// benchSettings are the (F, batch) pairs of the benchmark's
// paper-offline workload; batch 0 takes the Table 6 default.
var benchSettings = []struct {
	f     float64
	batch int
}{{4, 80}, {32, 0}}

// BenchmarkBuildSchedule times the reverse pass alone on synth.
func BenchmarkBuildSchedule(b *testing.B) {
	tr := tracetest.Bundled(b, "synth")
	refs := make([]layout.BlockID, len(tr.Refs))
	for i, r := range tr.Refs {
		refs[i] = r.Block
	}
	for _, disks := range []int{1, 4, 16} {
		lay, err := tr.Layout(disks, 0)
		if err != nil {
			b.Fatal(err)
		}
		diskOf := func(blk layout.BlockID) int { return lay.Lookup(blk).Disk }
		for _, st := range benchSettings {
			batch := st.batch
			if batch == 0 {
				batch = policy.DefaultBatchSize(disks)
			}
			b.Run(fmt.Sprintf("F%g-b%d/%dd", st.f, st.batch, disks), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := BuildSchedule(refs, diskOf, tr.NumBlocks(), disks, tr.CacheBlocks, st.f, batch); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(refs))*float64(b.N)/b.Elapsed().Seconds(), "refs/s")
			})
		}
	}
}

// BenchmarkReplay times a whole reverse aggressive run on synth: the
// schedule construction in Attach plus the forward replay.
func BenchmarkReplay(b *testing.B) {
	tr := tracetest.Bundled(b, "synth")
	for _, disks := range []int{1, 4, 16} {
		for _, st := range benchSettings {
			b.Run(fmt.Sprintf("F%g-b%d/%dd", st.f, st.batch, disks), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := engine.Run(engine.Config{Trace: tr, Policy: New(st.f, st.batch), Disks: disks}); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(tr.Refs))*float64(b.N)/b.Elapsed().Seconds(), "refs/s")
			})
		}
	}
}
