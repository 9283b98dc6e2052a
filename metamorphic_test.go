package ppcsim_test

import (
	"math/rand"
	"reflect"
	"testing"

	"ppcsim"
	"ppcsim/internal/trace/tracetest"
)

// Metamorphic invariants: relations between runs that must hold for any
// trace, checked on small synthetic workloads across every prefetching
// algorithm and array size. Unlike the appendix-table claims these need
// no golden numbers — they compare the simulator against itself, so they
// survive disk-model changes that shift absolute results.

// metaAlgs are the paper's four prefetching/caching algorithms.
var metaAlgs = []ppcsim.Algorithm{
	ppcsim.FixedHorizon, ppcsim.Aggressive, ppcsim.ReverseAggressive, ppcsim.Forestall,
}

var metaDisks = []int{1, 2, 4}

// metaTraces is the synthetic workload mix: cyclic reuse, a cache-busting
// stride, and a seeded random trace.
func metaTraces() []*ppcsim.Trace {
	return []*ppcsim.Trace{
		tracetest.Loop("loop", 32, 400, 2),
		tracetest.Strided("stride", 48, 400, 7, 1),
		tracetest.Random(rand.New(rand.NewSource(11)), tracetest.RandomConfig{
			MaxBlocks: 48, MaxRefs: 400,
		}),
	}
}

func metaRun(t *testing.T, tr *ppcsim.Trace, alg ppcsim.Algorithm, disks, cache int) ppcsim.Result {
	t.Helper()
	r, err := ppcsim.Run(ppcsim.Options{
		Trace: tr, Algorithm: alg, Disks: disks, CacheBlocks: cache,
	})
	if err != nil {
		t.Fatalf("%s/%s/d=%d/c=%d: %v", tr.Name, alg, disks, cache, err)
	}
	return r
}

// metaTolerance absorbs scheduling noise in the comparisons: the
// invariants are structural, but batching boundaries and CSCAN sweep
// positions can nudge elapsed time by a fraction of a percent.
const metaTolerance = 1.02

// TestMetamorphicPrefetchBeatsDemand: every prefetching algorithm must
// finish no later than demand fetching with the same optimal
// replacement — prefetching only overlaps fetches with compute it would
// otherwise stall through.
func TestMetamorphicPrefetchBeatsDemand(t *testing.T) {
	for _, tr := range metaTraces() {
		for _, d := range metaDisks {
			demand := metaRun(t, tr, ppcsim.Demand, d, 0)
			for _, alg := range metaAlgs {
				r := metaRun(t, tr, alg, d, 0)
				if r.ElapsedSec > demand.ElapsedSec*metaTolerance {
					t.Errorf("%s/d=%d: %s elapsed %.4fs exceeds demand %.4fs",
						tr.Name, d, alg, r.ElapsedSec, demand.ElapsedSec)
				}
			}
		}
	}
}

// TestMetamorphicCacheMonotone: growing the cache never slows a run.
// The invariant has three true forms with different strengths. Demand
// fetching with optimal replacement is pairwise monotone on any trace —
// extra blocks only remove fetches. Prefetchers are pairwise monotone on
// workloads with reuse, but only within a queueing tolerance: a bigger
// cache admits more in-flight prefetches, and CSCAN sweep reordering can
// delay the demand stream (the effect batching exists to bound), which
// on a pure-miss stride stream breaks pairwise monotonicity outright.
// Even there, though, the fully-resident cache beats every smaller size.
func TestMetamorphicCacheMonotone(t *testing.T) {
	sizes := []int{4, 8, 16, 32, 64}

	t.Run("demand-pairwise", func(t *testing.T) {
		for _, tr := range metaTraces() {
			for _, d := range metaDisks {
				prev, prevSize := -1.0, 0
				for _, c := range sizes {
					r := metaRun(t, tr, ppcsim.Demand, d, c)
					if prev >= 0 && r.ElapsedSec > prev*metaTolerance {
						t.Errorf("%s/d=%d: cache %d→%d raised elapsed %.4fs→%.4fs",
							tr.Name, d, prevSize, c, prev, r.ElapsedSec)
					}
					prev, prevSize = r.ElapsedSec, c
				}
			}
		}
	})

	t.Run("prefetch-pairwise-on-reuse", func(t *testing.T) {
		// 5%: forestall's prefetch-queueing wobble on the loop trace
		// reaches ~3% between small cache sizes.
		const queueTolerance = 1.05
		reuse := []*ppcsim.Trace{
			tracetest.Loop("loop", 32, 400, 2),
			tracetest.Random(rand.New(rand.NewSource(11)), tracetest.RandomConfig{
				MaxBlocks: 48, MaxRefs: 400,
			}),
		}
		for _, tr := range reuse {
			for _, alg := range metaAlgs {
				for _, d := range metaDisks {
					prev, prevSize := -1.0, 0
					for _, c := range sizes {
						r := metaRun(t, tr, alg, d, c)
						if prev >= 0 && r.ElapsedSec > prev*queueTolerance {
							t.Errorf("%s/%s/d=%d: cache %d→%d raised elapsed %.4fs→%.4fs",
								tr.Name, alg, d, prevSize, c, prev, r.ElapsedSec)
						}
						prev, prevSize = r.ElapsedSec, c
					}
				}
			}
		}
	})

	t.Run("full-residency-global-min", func(t *testing.T) {
		full := sizes[len(sizes)-1] // covers every trace's block space
		for _, tr := range metaTraces() {
			for _, alg := range metaAlgs {
				for _, d := range metaDisks {
					best := metaRun(t, tr, alg, d, full)
					for _, c := range sizes[:len(sizes)-1] {
						r := metaRun(t, tr, alg, d, c)
						if best.ElapsedSec > r.ElapsedSec*metaTolerance {
							t.Errorf("%s/%s/d=%d: full cache %.4fs loses to cache %d at %.4fs",
								tr.Name, alg, d, best.ElapsedSec, c, r.ElapsedSec)
						}
					}
				}
			}
		}
	})
}

// TestMetamorphicDuplicateSubadditive: running the trace twice
// back-to-back costs at most twice one run — the second pass starts with
// a warm cache, so it can only be cheaper.
func TestMetamorphicDuplicateSubadditive(t *testing.T) {
	for _, tr := range metaTraces() {
		doubled := tracetest.Repeat(tr, 2)
		for _, alg := range metaAlgs {
			for _, d := range metaDisks {
				one := metaRun(t, tr, alg, d, 0)
				two := metaRun(t, doubled, alg, d, 0)
				if two.ElapsedSec > 2*one.ElapsedSec*metaTolerance {
					t.Errorf("%s/%s/d=%d: doubled trace elapsed %.4fs exceeds 2x single %.4fs",
						tr.Name, alg, d, two.ElapsedSec, one.ElapsedSec)
				}
				if served := two.CacheHits + two.CacheMisses; served != int64(2*len(tr.Refs)) {
					t.Errorf("%s/%s/d=%d: doubled trace served %d of %d refs",
						tr.Name, alg, d, served, 2*len(tr.Refs))
				}
			}
		}
	}
}

// TestMetamorphicWindowMonotone: on reuse workloads a larger lookahead
// window never slows a run — more future knowledge can only start
// fetches earlier and evict smarter. Window 0 (unlimited) closes the
// sequence as the largest window.
func TestMetamorphicWindowMonotone(t *testing.T) {
	base := tracetest.Loop("loop", 32, 400, 2)
	reuse := []*ppcsim.Trace{base, tracetest.Repeat(base, 2)}
	windows := []int{1, 4, 16, 64, 0}
	for _, tr := range reuse {
		for _, alg := range []ppcsim.Algorithm{ppcsim.FixedHorizon, ppcsim.Aggressive, ppcsim.Forestall} {
			for _, d := range metaDisks {
				prev, prevW := -1.0, 0
				for _, w := range windows {
					var h *ppcsim.HintSpec
					if w != 0 {
						h = &ppcsim.HintSpec{Fraction: 1, Accuracy: 1, Window: w}
					}
					r, err := ppcsim.Run(ppcsim.Options{Trace: tr, Algorithm: alg, Disks: d, Hints: h})
					if err != nil {
						t.Fatalf("%s/%s/d=%d/W=%d: %v", tr.Name, alg, d, w, err)
					}
					if prev >= 0 && r.ElapsedSec > prev*metaTolerance {
						t.Errorf("%s/%s/d=%d: window %d→%d raised elapsed %.4fs→%.4fs",
							tr.Name, alg, d, prevW, w, prev, r.ElapsedSec)
					}
					prev, prevW = r.ElapsedSec, w
				}
			}
		}
	}
}

// TestMetamorphicReadaheadBeatsDemandSequential: on constant-stride
// workloads the hint-less readahead detector must beat demand fetching
// outright — run detection buys fetch overlap that demand cannot have.
func TestMetamorphicReadaheadBeatsDemandSequential(t *testing.T) {
	seq := []*ppcsim.Trace{
		tracetest.Strided("seq", 64, 400, 1, 1),
		tracetest.Strided("stride", 48, 400, 7, 1),
	}
	for _, tr := range seq {
		for _, d := range metaDisks {
			demand := metaRun(t, tr, ppcsim.Demand, d, 0)
			ra := metaRun(t, tr, ppcsim.Readahead, d, 0)
			if ra.ElapsedSec >= demand.ElapsedSec {
				t.Errorf("%s/d=%d: readahead %.4fs does not beat demand %.4fs",
					tr.Name, d, ra.ElapsedSec, demand.ElapsedSec)
			}
		}
	}
}

// TestMetamorphicMoreDisksNoSlower: adding drives to the array never
// lengthens a run (striping only adds parallel fetch capacity).
func TestMetamorphicMoreDisksNoSlower(t *testing.T) {
	for _, tr := range metaTraces() {
		for _, alg := range metaAlgs {
			prev := -1.0
			prevD := 0
			for _, d := range metaDisks {
				r := metaRun(t, tr, alg, d, 0)
				if prev >= 0 && r.ElapsedSec > prev*metaTolerance {
					t.Errorf("%s/%s: disks %d→%d raised elapsed %.4fs→%.4fs",
						tr.Name, alg, prevD, d, prev, r.ElapsedSec)
				}
				prev, prevD = r.ElapsedSec, d
			}
		}
	}
}

// neverFiringF is a fixed forestall F' so small that no missing block's
// slack d_i - i*F' goes negative: the stall forecast never fires, and
// forestall is left with fixed horizon's within-H rule alone.
const neverFiringF = 1e-12

// forestallAsFixedHorizon runs opts under fixed horizon and under
// forestall whose forecast never fires, with the same Horizon, and
// returns the two Results with the Policy name set alike. The two must
// be equal: forestall's within-H rule is fixed horizon's.
func forestallAsFixedHorizon(opts ppcsim.Options) (fh, fs ppcsim.Result, err error) {
	opts.Algorithm = ppcsim.FixedHorizon
	if fh, err = ppcsim.Run(opts); err != nil {
		return fh, fs, err
	}
	opts.Algorithm, opts.ForestallFixedF = ppcsim.Forestall, neverFiringF
	fs, err = ppcsim.Run(opts)
	fs.Policy = fh.Policy
	return fh, fs, err
}

// TestMetamorphicForestallHorizonRuleIsFixedHorizon: forestall whose
// stall forecast never fires fetches exactly as fixed horizon does, at
// horizons below and above the cache size (with H > K an eviction can
// make a block missing inside the window the rule already scanned).
func TestMetamorphicForestallHorizonRuleIsFixedHorizon(t *testing.T) {
	for _, name := range []string{"cscope1", "synth", "ld", "xds"} {
		tr, err := ppcsim.NewTrace(name)
		if err != nil {
			t.Fatal(err)
		}
		tr = tr.Truncate(6000)
		for _, k := range []int{16, 64, 1280} {
			for _, h := range []int{8, 62, 500} {
				for _, disks := range []int{1, 4} {
					fh, fs, err := forestallAsFixedHorizon(ppcsim.Options{
						Trace: tr, Disks: disks, CacheBlocks: k, Horizon: h,
					})
					if err != nil {
						t.Fatalf("%s/K=%d/H=%d/%dd: %v", name, k, h, disks, err)
					}
					if !reflect.DeepEqual(fh, fs) {
						t.Errorf("%s/K=%d/H=%d/%dd: forestall %.1f s, %d fetches; fixed horizon %.1f s, %d fetches",
							name, k, h, disks, fs.ElapsedSec, fs.Fetches, fh.ElapsedSec, fh.Fetches)
					}
				}
			}
		}
	}
}
