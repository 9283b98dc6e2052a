package revagg

import (
	"fmt"
	"testing"

	"ppcsim/internal/engine"
	"ppcsim/internal/layout"
	"ppcsim/internal/policy"
	"ppcsim/internal/trace"
	"ppcsim/internal/trace/tracetest"
)

// shortRefs is the prefix of synth that the allocation tests compare
// the whole trace against.
const shortRefs = 10000

func blockColumn(tr *trace.Trace) []layout.BlockID {
	refs := make([]layout.BlockID, len(tr.Refs))
	for i, r := range tr.Refs {
		refs[i] = r.Block
	}
	return refs
}

// TestBuildScheduleAllocationIsBounded checks that the reverse pass
// allocates as many times on synth as on its first shortRefs
// references, and as many times at every array size and (F, batch)
// setting the benchmark runs. Every column is sized before the pass
// starts and the heaps share one array, so an eviction heap that
// regrows shows up as extra allocations, more of them on more disks.
func TestBuildScheduleAllocationIsBounded(t *testing.T) {
	tr := tracetest.Bundled(t, "synth")
	long, short := blockColumn(tr), blockColumn(tracetest.Truncated(t, "synth", shortRefs))
	first := -1.0
	for _, disks := range []int{1, 4, 16} {
		lay, err := tr.Layout(disks, 0)
		if err != nil {
			t.Fatal(err)
		}
		diskOf := func(blk layout.BlockID) int { return lay.Lookup(blk).Disk }
		for _, st := range benchSettings {
			batch := st.batch
			if batch == 0 {
				batch = policy.DefaultBatchSize(disks)
			}
			for _, refs := range [][]layout.BlockID{long, short} {
				n := testing.AllocsPerRun(2, func() {
					if _, err := BuildSchedule(refs, diskOf, tr.NumBlocks(), disks, tr.CacheBlocks, st.f, batch); err != nil {
						t.Fatal(err)
					}
				})
				if first < 0 {
					first = n
				}
				if n != first {
					t.Errorf("F%g-b%d/%dd on %d refs: %v allocations, %v on the first run", st.f, st.batch, disks, len(refs), n, first)
				}
			}
		}
	}
}

// attachColumns is how many allocations Attach makes beyond
// BuildSchedule's: the request-index count buffer, the byNeed and order
// columns (reused as slot and blockPos), gated, blockEnd, blockHead,
// and per disk diskEnd, ptr and quiet, plus the issued and ready
// bitmaps.
const attachColumns = 11

// stateProbe is a reverse aggressive policy that keeps the engine state
// it was attached to.
type stateProbe struct {
	*Policy
	s *engine.State
}

func (p *stateProbe) Attach(s *engine.State) {
	p.s = s
	p.Policy.Attach(s)
}

// TestAttachAllocationIsBounded checks that Attach allocates as many
// times on synth as on its first shortRefs references, and exactly
// attachColumns times more than the reverse pass it runs: the sorts
// share one count buffer. Each state comes from a finished run; Attach
// reads only its trace, layout, drives and cache size.
func TestAttachAllocationIsBounded(t *testing.T) {
	long, short := tracetest.Bundled(t, "synth"), tracetest.Truncated(t, "synth", shortRefs)
	for _, disks := range []int{1, 4, 16} {
		for _, st := range benchSettings {
			name := fmt.Sprintf("F%g-b%d/%dd", st.f, st.batch, disks)
			var counts [2]float64
			for i, tr := range []*trace.Trace{long, short} {
				probe := &stateProbe{Policy: New(st.f, st.batch)}
				if _, err := engine.Run(engine.Config{Trace: tr, Policy: probe, Disks: disks}); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				s, p := probe.s, New(st.f, st.batch)
				counts[i] = testing.AllocsPerRun(2, func() { p.Attach(s) })
				pass := testing.AllocsPerRun(2, func() {
					if _, err := BuildSchedule(s.Refs, s.DiskOf, s.Layout.NumBlocks(), len(s.Drives), s.Cache.Capacity(), p.FetchEstimate, p.batch); err != nil {
						t.Fatal(err)
					}
				})
				if extra := counts[i] - pass; extra != attachColumns {
					t.Errorf("%s on %d refs: Attach allocates %v times beyond the reverse pass, want %d", name, len(tr.Refs), extra, attachColumns)
				}
			}
			if counts[0] != counts[1] {
				t.Errorf("%s: Attach allocates %v times on %d refs, %v on %d", name, counts[0], len(long.Refs), counts[1], len(short.Refs))
			}
		}
	}
}
