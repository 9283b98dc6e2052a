package ppcsim_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ppcsim"
	"ppcsim/internal/trace/tracetest"
)

// The hints extension: the paper's section 6 notes the study covers only
// the fully-hinted case and that the online algorithms "can easily be
// adapted" to incomplete or inaccurate hints. These tests pin the
// extension's expected behavior.

func hintRun(t *testing.T, tr *ppcsim.Trace, alg ppcsim.Algorithm, d int, h *ppcsim.HintSpec) ppcsim.Result {
	t.Helper()
	r, err := ppcsim.Run(ppcsim.Options{Trace: tr, Algorithm: alg, Disks: d, Hints: h})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestHintsFullEqualsNoSpec: Fraction=1, Accuracy=1 must reproduce the
// fully-hinted run exactly.
func TestHintsFullEqualsNoSpec(t *testing.T) {
	tr := truncated(t, "cscope2", 5000)
	for _, alg := range []ppcsim.Algorithm{ppcsim.FixedHorizon, ppcsim.Aggressive, ppcsim.Forestall} {
		base := hintRun(t, tr, alg, 2, nil)
		full := hintRun(t, tr, alg, 2, &ppcsim.HintSpec{Fraction: 1, Accuracy: 1})
		if base.ElapsedSec != full.ElapsedSec || base.Fetches != full.Fetches {
			t.Errorf("%s: full hints differ from no spec: %v vs %v", alg, base, full)
		}
	}
}

// TestHintsDegradeGracefully: fewer hints must not help, and zero hints
// must behave like demand fetching with suboptimal-but-legal replacement
// (every reference still served).
func TestHintsDegradeGracefully(t *testing.T) {
	tr := truncated(t, "postgres-select", 3000)
	for _, alg := range []ppcsim.Algorithm{ppcsim.FixedHorizon, ppcsim.Forestall} {
		full := hintRun(t, tr, alg, 2, nil)
		half := hintRun(t, tr, alg, 2, &ppcsim.HintSpec{Fraction: 0.5, Accuracy: 1, Seed: 7})
		none := hintRun(t, tr, alg, 2, &ppcsim.HintSpec{Fraction: 0, Accuracy: 1, Seed: 7})
		if half.ElapsedSec < full.ElapsedSec*0.98 {
			t.Errorf("%s: half hints (%.3fs) should not beat full hints (%.3fs)", alg, half.ElapsedSec, full.ElapsedSec)
		}
		if none.ElapsedSec < half.ElapsedSec*0.98 {
			t.Errorf("%s: no hints (%.3fs) should not beat half hints (%.3fs)", alg, none.ElapsedSec, half.ElapsedSec)
		}
		for _, r := range []ppcsim.Result{full, half, none} {
			if r.CacheHits+r.CacheMisses != int64(len(tr.Refs)) {
				t.Errorf("%s: not every reference served", alg)
			}
		}
	}
}

// TestInaccurateHintsWasteFetches: wrong hints cause prefetches of blocks
// that are never used.
func TestInaccurateHintsWasteFetches(t *testing.T) {
	tr := truncated(t, "cscope2", 5000)
	good := hintRun(t, tr, ppcsim.Aggressive, 2, nil)
	bad := hintRun(t, tr, ppcsim.Aggressive, 2, &ppcsim.HintSpec{Fraction: 1, Accuracy: 0.5, Seed: 3})
	if bad.Fetches <= good.Fetches {
		t.Errorf("inaccurate hints should add wasted fetches: %d vs %d", bad.Fetches, good.Fetches)
	}
	if bad.ElapsedSec <= good.ElapsedSec {
		t.Errorf("inaccurate hints should hurt: %.3fs vs %.3fs", bad.ElapsedSec, good.ElapsedSec)
	}
}

// TestLRUImmuneToHintQuality: demand-LRU ignores hints entirely.
func TestLRUImmuneToHintQuality(t *testing.T) {
	tr := truncated(t, "glimpse", 4000)
	base := hintRun(t, tr, ppcsim.DemandLRU, 2, nil)
	noisy := hintRun(t, tr, ppcsim.DemandLRU, 2, &ppcsim.HintSpec{Fraction: 0.3, Accuracy: 0.5, Seed: 11})
	if base.Fetches != noisy.Fetches || base.ElapsedSec != noisy.ElapsedSec {
		t.Errorf("LRU should be hint-independent: %v vs %v", base, noisy)
	}
}

// TestHintedPrefetchersStillBeatLRUWithDecentHints: even 75% hints keep
// the prefetchers ahead of a conventional LRU cache.
func TestHintedPrefetchersStillBeatLRUWithDecentHints(t *testing.T) {
	tr := truncated(t, "postgres-select", 3000)
	lru := hintRun(t, tr, ppcsim.DemandLRU, 2, nil)
	fo := hintRun(t, tr, ppcsim.Forestall, 2, &ppcsim.HintSpec{Fraction: 0.75, Accuracy: 1, Seed: 5})
	if fo.ElapsedSec >= lru.ElapsedSec {
		t.Errorf("75%%-hinted forestall (%.3fs) should beat LRU (%.3fs)", fo.ElapsedSec, lru.ElapsedSec)
	}
}

// TestReverseAggressiveRejectsHints: the offline algorithm needs full
// knowledge.
func TestReverseAggressiveRejectsHints(t *testing.T) {
	tr := truncated(t, "ld", 500)
	_, err := ppcsim.Run(ppcsim.Options{
		Trace: tr, Algorithm: ppcsim.ReverseAggressive, Disks: 1,
		Hints: &ppcsim.HintSpec{Fraction: 0.5, Accuracy: 1},
	})
	if err == nil {
		t.Error("reverse aggressive with partial hints should be rejected")
	}
}

// TestHintSpecValidation rejects out-of-range specs.
func TestHintSpecValidation(t *testing.T) {
	tr := truncated(t, "ld", 500)
	for _, h := range []*ppcsim.HintSpec{
		{Fraction: -0.1, Accuracy: 1},
		{Fraction: 1.5, Accuracy: 1},
		{Fraction: 1, Accuracy: -1},
		{Fraction: 1, Accuracy: 2},
	} {
		if _, err := ppcsim.Run(ppcsim.Options{Trace: tr, Algorithm: ppcsim.FixedHorizon, Disks: 1, Hints: h}); err == nil {
			t.Errorf("spec %+v should be rejected", h)
		}
	}
}

// TestHintsRandomTraces: property test — every online policy completes
// under arbitrary hint quality on arbitrary traces.
func TestHintsRandomTraces(t *testing.T) {
	algs := []ppcsim.Algorithm{ppcsim.Demand, ppcsim.FixedHorizon, ppcsim.Aggressive, ppcsim.Forestall, ppcsim.DemandLRU}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := tracetest.Random(rng, tracetest.RandomConfig{
			MaxBlocks: 44, MaxRefs: 329, MaxComputeMs: 4,
		})
		n := len(tr.Refs)
		h := &ppcsim.HintSpec{
			Fraction: rng.Float64(),
			Accuracy: rng.Float64(),
			Seed:     rng.Int63(),
		}
		alg := algs[rng.Intn(len(algs))]
		r, err := ppcsim.Run(ppcsim.Options{Trace: tr, Algorithm: alg, Disks: 1 + rng.Intn(4), Hints: h})
		if err != nil {
			t.Logf("seed %d %s: %v", seed, alg, err)
			return false
		}
		return r.CacheHits+r.CacheMisses == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestNoDisclosureIsDemandLRU: a block with no disclosed next use is
// evicted least recently used first, so a run that discloses nothing,
// and a run that sees nothing ahead of the cursor, replace exactly as
// demand-LRU does. With no future in view every policy fetches only on
// a miss, so each must reproduce the demand-LRU run.
func TestNoDisclosureIsDemandLRU(t *testing.T) {
	specs := []ppcsim.HintSpec{{Fraction: 0, Accuracy: 1}, {Fraction: 1, Accuracy: 1, Window: ppcsim.WindowNone}}
	algs := []ppcsim.Algorithm{ppcsim.Demand, ppcsim.FixedHorizon, ppcsim.Aggressive, ppcsim.Forestall}
	for _, name := range []string{"cscope2", "postgres-select", "synth", "ld"} {
		tr := tracetest.Bundled(t, name)
		for _, d := range []int{1, 2, 4} {
			lru := hintRun(t, tr, ppcsim.DemandLRU, d, nil)
			for _, alg := range algs {
				for _, h := range specs {
					r := hintRun(t, tr, alg, d, &h)
					if r.Fetches != lru.Fetches || r.CacheHits != lru.CacheHits || r.CacheMisses != lru.CacheMisses ||
						r.ElapsedSec != lru.ElapsedSec || r.StallTimeSec != lru.StallTimeSec {
						t.Errorf("%s %s %dd %+v: fetches %d hits %d misses %d elapsed %v stall %v; demand-lru %d %d %d %v %v",
							name, alg, d, h, r.Fetches, r.CacheHits, r.CacheMisses, r.ElapsedSec, r.StallTimeSec,
							lru.Fetches, lru.CacheHits, lru.CacheMisses, lru.ElapsedSec, lru.StallTimeSec)
					}
				}
			}
		}
	}
}
