package engine

import (
	"runtime"
	"testing"

	"ppcsim/internal/trace/tracetest"
)

// TestMaterializedRunReadsTraceInPlace bounds what a materialized run
// allocates per reference: a demand run over synth at one disk holds the
// disclosed column (4 bytes a reference) and the oracle's chains, and
// reads blocks, compute times and write flags from the caller's trace. A
// per-run copy of any of those (8 bytes a reference for compute alone)
// breaks the bound.
func TestMaterializedRunReadsTraceInPlace(t *testing.T) {
	tr := tracetest.Bundled(t, "synth")
	run := func() {
		if _, err := Run(Config{Trace: tr, Policy: &demandPolicy{}, Disks: 1}); err != nil {
			t.Fatal(err)
		}
	}
	run() // leave lazily built package state out of the count
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	perRef := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(tr.Refs))
	t.Logf("%.2f B/ref over %d refs", perRef, len(tr.Refs))
	if perRef > 12 {
		t.Errorf("a materialized demand run allocated %.2f B/ref, want at most 12", perRef)
	}
}

// BenchmarkNewState times run setup (newState) on synth per reference:
// validating every reference, filling the disclosed column and building
// the oracle.
func BenchmarkNewState(b *testing.B) {
	tr := tracetest.Bundled(b, "synth")
	cfg := Config{Trace: tr, Policy: &demandPolicy{}, Disks: 1}
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := newState(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	refs := float64(len(tr.Refs)) * float64(b.N)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/refs, "ns/ref")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/refs, "B/ref")
}
