package trace

import (
	"math/rand"
	"strings"
	"testing"

	"ppcsim/internal/layout"
)

// coldText renders the shape of a cold /v1/run body's trace: refs random
// references over 128 blocks with compute times of 0.01 to 0.21 ms.
func coldText(refs int) string {
	rng := rand.New(rand.NewSource(1))
	t := &Trace{Name: "cold-000000", Files: []layout.File{{Blocks: 128}}, CacheBlocks: 64}
	for i := 0; i < refs; i++ {
		t.Refs = append(t.Refs, Ref{Block: layout.BlockID(rng.Intn(128)), ComputeMs: 0.01 + 0.2*rng.Float64()})
	}
	var b strings.Builder
	if err := t.Write(&b); err != nil {
		panic(err)
	}
	return b.String()
}

// readAllocBound caps Read's allocations on a 2,000-reference text. A
// reference line allocates nothing, so what remains is per trace: the
// scanner and its buffer, the Trace, the Files slice and the doublings
// of Refs (about a dozen at this length).
const readAllocBound = 32

// TestReadAllocationIsBounded holds Read to readAllocBound allocations
// on a 2,000-reference trace, where splitting each line with
// strings.Fields cost two allocations per line.
func TestReadAllocationIsBounded(t *testing.T) {
	text := coldText(2000)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Read(strings.NewReader(text)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > readAllocBound {
		t.Errorf("Read of a 2,000-reference trace made %.0f allocations, want at most %d", allocs, readAllocBound)
	}
}

// BenchmarkReadText parses the 2,000-reference text of a cold /v1/run
// body.
func BenchmarkReadText(b *testing.B) {
	text := coldText(2000)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Read(strings.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
}
