package policy

import (
	"testing"

	"ppcsim/internal/disk"
	"ppcsim/internal/engine"
	"ppcsim/internal/layout"
	"ppcsim/internal/trace"
)

// fixedModel serves every request in a constant time.
type fixedModel struct{ ms float64 }

func (m fixedModel) Service(int64, float64) float64 { return m.ms }

func fixed(ms float64) func() disk.Model {
	return func() disk.Model { return fixedModel{ms} }
}

// loopTrace builds `passes` sequential passes over n blocks with uniform
// compute time.
func loopTrace(n, passes int, computeMs float64, cacheBlocks int) *trace.Trace {
	tr := &trace.Trace{
		Name:        "loop",
		Files:       []layout.File{{First: 0, Blocks: n}},
		CacheBlocks: cacheBlocks,
	}
	for p := 0; p < passes; p++ {
		for i := 0; i < n; i++ {
			tr.Refs = append(tr.Refs, trace.Ref{Block: layout.BlockID(i), ComputeMs: computeMs})
		}
	}
	return tr
}

func mustRun(t *testing.T, cfg engine.Config) engine.Result {
	t.Helper()
	r, err := engine.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestDefaultBatchSizeTable6(t *testing.T) {
	want := map[int]int{1: 80, 2: 40, 3: 40, 4: 16, 5: 16, 6: 8, 7: 8, 8: 4, 10: 4, 12: 4, 16: 4}
	for d, w := range want {
		if got := DefaultBatchSize(d); got != w {
			t.Errorf("DefaultBatchSize(%d) = %d, want %d (paper Table 6)", d, got, w)
		}
	}
}

func TestDemandFetchesOnlyOnMiss(t *testing.T) {
	// All blocks fit in cache: demand fetches each block exactly once.
	tr := loopTrace(50, 4, 1.0, 64)
	r := mustRun(t, engine.Config{Trace: tr, Policy: NewDemand(), Disks: 1, Model: fixed(5)})
	if r.Fetches != 50 {
		t.Errorf("fetches = %d, want 50", r.Fetches)
	}
	if r.CacheMisses != 50 || r.CacheHits != int64(len(tr.Refs)-50) {
		t.Errorf("hits=%d misses=%d", r.CacheHits, r.CacheMisses)
	}
	// Every miss stalls the full fetch time under demand fetching.
	if r.StallTimeSec <= 0 {
		t.Error("demand fetching should stall")
	}
}

func TestFixedHorizonEliminatesStallWhenComputeBound(t *testing.T) {
	// 5ms fetch, 10ms compute: one disk is plenty; fixed horizon should
	// fully hide I/O after the first H-window warmup. The loop must be
	// longer than H=62, otherwise the "victim further than H away"
	// condition can never hold on a loop.
	tr := loopTrace(200, 3, 10.0, 150)
	fh := mustRun(t, engine.Config{Trace: tr, Policy: NewFixedHorizon(0), Disks: 1, Model: fixed(5)})
	if fh.StallTimeSec > 0.010 {
		t.Errorf("fixed horizon stall = %gs, want ~0", fh.StallTimeSec)
	}
	dm := mustRun(t, engine.Config{Trace: tr, Policy: NewDemand(), Disks: 1, Model: fixed(5)})
	if fh.ElapsedSec >= dm.ElapsedSec {
		t.Errorf("fixed horizon (%g) should beat demand (%g)", fh.ElapsedSec, dm.ElapsedSec)
	}
}

func TestFixedHorizonFetchCountOnLoop(t *testing.T) {
	// Loop of n blocks, cache K < n: fixed horizon evicts the
	// furthest-future block like MIN, so it performs the same minimal
	// n + (passes-1)*(n-K) fetches plus at most the horizon warmup.
	const n, k, passes = 60, 40, 4
	tr := loopTrace(n, passes, 1.0, k)
	r := mustRun(t, engine.Config{Trace: tr, Policy: NewFixedHorizon(10), Disks: 1, Model: fixed(2)})
	min := int64(n + (passes-1)*(n-k))
	if r.Fetches < min {
		t.Errorf("fetches = %d, below the MIN bound %d", r.Fetches, min)
	}
	if r.Fetches > min+int64(n) {
		t.Errorf("fetches = %d, way above the MIN bound %d", r.Fetches, min)
	}
}

func TestFixedHorizonHonorsHorizon(t *testing.T) {
	// With an H of 4 and huge compute times, at most H blocks should ever
	// be outstanding; with everything cacheable there is exactly one
	// fetch per distinct block.
	tr := loopTrace(30, 2, 50.0, 32)
	r := mustRun(t, engine.Config{Trace: tr, Policy: NewFixedHorizon(4), Disks: 4, Model: fixed(5)})
	if r.Fetches != 30 {
		t.Errorf("fetches = %d, want 30", r.Fetches)
	}
}

func TestFixedHorizonLargerThanCache(t *testing.T) {
	// H > K exercises the retry path ("provided that reference is
	// further than H accesses in the future" can fail).
	tr := loopTrace(50, 4, 1.0, 20)
	r := mustRun(t, engine.Config{Trace: tr, Policy: NewFixedHorizon(200), Disks: 2, Model: fixed(5)})
	if r.CacheHits+r.CacheMisses != int64(len(tr.Refs)) {
		t.Error("not every reference was served")
	}
}

func TestAggressivePrefetchesEverythingOnce(t *testing.T) {
	// All blocks fit: aggressive prefetches each block exactly once and
	// eliminates almost all stalling even with fast references.
	tr := loopTrace(50, 4, 2.0, 64)
	r := mustRun(t, engine.Config{Trace: tr, Policy: NewAggressive(0), Disks: 2, Model: fixed(4)})
	if r.Fetches != 50 {
		t.Errorf("fetches = %d, want 50 (no wasted fetches when everything fits)", r.Fetches)
	}
	dm := mustRun(t, engine.Config{Trace: tr, Policy: NewDemand(), Disks: 2, Model: fixed(4)})
	if r.ElapsedSec >= dm.ElapsedSec {
		t.Errorf("aggressive (%g) should beat demand (%g)", r.ElapsedSec, dm.ElapsedSec)
	}
}

func TestAggressiveBeatsFixedHorizonWhenIOBound(t *testing.T) {
	// The paper's synth single-disk case: the cached 1280-block run makes
	// fixed horizon idle the disk until the last H cached blocks, while
	// aggressive prefetches the distant missing cluster throughout.
	tr, err := trace.ByName("synth")
	if err != nil {
		t.Fatal(err)
	}
	tr = tr.Truncate(20000)
	ag := mustRun(t, engine.Config{Trace: tr, Policy: NewAggressive(0), Disks: 1})
	fh := mustRun(t, engine.Config{Trace: tr, Policy: NewFixedHorizon(0), Disks: 1})
	if ag.ElapsedSec >= fh.ElapsedSec {
		t.Errorf("I/O bound: aggressive (%g) should beat fixed horizon (%g)", ag.ElapsedSec, fh.ElapsedSec)
	}
	if fh.StallTimeSec <= ag.StallTimeSec {
		t.Errorf("fixed horizon should stall more (fh %g vs ag %g)", fh.StallTimeSec, ag.StallTimeSec)
	}
}

func TestFixedHorizonBeatsAggressiveWhenComputeBound(t *testing.T) {
	// Plenty of disks and compute-bound: aggressive wastes fetches
	// (driver overhead) re-fetching the loop, fixed horizon does not
	// (the paper's synth 3-disk observation).
	tr := loopTrace(200, 6, 6.0, 128)
	ag := mustRun(t, engine.Config{Trace: tr, Policy: NewAggressive(0), Disks: 4, Model: fixed(8)})
	fh := mustRun(t, engine.Config{Trace: tr, Policy: NewFixedHorizon(0), Disks: 4, Model: fixed(8)})
	if fh.ElapsedSec > ag.ElapsedSec {
		t.Errorf("compute bound: fixed horizon (%g) should not lose to aggressive (%g)", fh.ElapsedSec, ag.ElapsedSec)
	}
	if ag.Fetches <= fh.Fetches {
		t.Errorf("aggressive fetches (%d) should exceed fixed horizon's (%d) here", ag.Fetches, fh.Fetches)
	}
}

func TestAggressiveBatchSizeAffectsIssue(t *testing.T) {
	tr := loopTrace(300, 3, 1.0, 128)
	small := mustRun(t, engine.Config{Trace: tr, Policy: NewAggressive(1), Disks: 1, Model: fixed(8)})
	big := mustRun(t, engine.Config{Trace: tr, Policy: NewAggressive(80), Disks: 1, Model: fixed(8)})
	if small.Fetches == 0 || big.Fetches == 0 {
		t.Fatal("no fetches")
	}
	// Both must serve the whole trace correctly regardless of batch.
	if small.CacheHits+small.CacheMisses != int64(len(tr.Refs)) ||
		big.CacheHits+big.CacheMisses != int64(len(tr.Refs)) {
		t.Error("not every reference was served")
	}
}

func TestForestallMatchesAggressiveWhenIOBound(t *testing.T) {
	tr := loopTrace(200, 6, 1.0, 128)
	fo := mustRun(t, engine.Config{Trace: tr, Policy: NewForestall(), Disks: 1, Model: fixed(8)})
	ag := mustRun(t, engine.Config{Trace: tr, Policy: NewAggressive(0), Disks: 1, Model: fixed(8)})
	if fo.ElapsedSec > ag.ElapsedSec*1.10 {
		t.Errorf("I/O bound: forestall (%g) should be within 10%% of aggressive (%g)", fo.ElapsedSec, ag.ElapsedSec)
	}
}

func TestForestallMatchesFixedHorizonWhenComputeBound(t *testing.T) {
	tr := loopTrace(200, 6, 6.0, 128)
	fo := mustRun(t, engine.Config{Trace: tr, Policy: NewForestall(), Disks: 4, Model: fixed(8)})
	fh := mustRun(t, engine.Config{Trace: tr, Policy: NewFixedHorizon(0), Disks: 4, Model: fixed(8)})
	ag := mustRun(t, engine.Config{Trace: tr, Policy: NewAggressive(0), Disks: 4, Model: fixed(8)})
	if fo.ElapsedSec > fh.ElapsedSec*1.10 {
		t.Errorf("compute bound: forestall (%g) should track fixed horizon (%g), aggressive was %g",
			fo.ElapsedSec, fh.ElapsedSec, ag.ElapsedSec)
	}
	if fo.Fetches > ag.Fetches {
		t.Errorf("compute bound: forestall fetches (%d) should not exceed aggressive's (%d)", fo.Fetches, ag.Fetches)
	}
}

func TestForestallFixedEstimate(t *testing.T) {
	tr := loopTrace(100, 3, 2.0, 64)
	for _, f := range []float64{1, 15, 60} {
		p := NewForestall()
		p.FixedF = f
		r := mustRun(t, engine.Config{Trace: tr, Policy: p, Disks: 2, Model: fixed(6)})
		if r.CacheHits+r.CacheMisses != int64(len(tr.Refs)) {
			t.Errorf("F'=%g: not every reference served", f)
		}
	}
}

func TestPolicyNames(t *testing.T) {
	if NewDemand().Name() != "demand" ||
		NewFixedHorizon(0).Name() != "fixed-horizon" ||
		NewAggressive(0).Name() != "aggressive" ||
		NewForestall().Name() != "forestall" {
		t.Error("policy names changed")
	}
}

func TestPoliciesOnAllDisciplines(t *testing.T) {
	tr := loopTrace(80, 3, 1.0, 48)
	pols := []func() engine.Policy{
		func() engine.Policy { return NewDemand() },
		func() engine.Policy { return NewFixedHorizon(0) },
		func() engine.Policy { return NewAggressive(0) },
		func() engine.Policy { return NewForestall() },
	}
	for _, mk := range pols {
		for _, disc := range []disk.Discipline{disk.CSCAN, disk.FCFS} {
			for _, d := range []int{1, 2, 5} {
				p := mk()
				r := mustRun(t, engine.Config{Trace: tr, Policy: p, Disks: d, Discipline: disc})
				if r.CacheHits+r.CacheMisses != int64(len(tr.Refs)) {
					t.Errorf("%s/%v/d=%d: served %d refs, want %d",
						p.Name(), disc, d, r.CacheHits+r.CacheMisses, len(tr.Refs))
				}
			}
		}
	}
}
