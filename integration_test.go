package ppcsim_test

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"ppcsim"
	"ppcsim/internal/trace/tracetest"
)

// truncated returns a scaled-down bundled trace for fast integration
// runs, sharing tracetest's per-process generation cache.
func truncated(t *testing.T, name string, n int) *ppcsim.Trace {
	t.Helper()
	return tracetest.Truncated(t, name, n)
}

// TestAllAlgorithmsAllTraces runs every algorithm on a slice of every
// bundled trace across array sizes and both schedulers, checking the
// global invariants: every reference served, non-negative stall, elapsed
// at least compute, utilization within bounds.
func TestAllAlgorithmsAllTraces(t *testing.T) {
	for _, name := range ppcsim.TraceNames {
		tr := truncated(t, name, 4000)
		for _, alg := range ppcsim.Algorithms {
			for _, d := range []int{1, 2, 4, 8} {
				for _, sched := range []ppcsim.Discipline{ppcsim.CSCAN, ppcsim.FCFS} {
					r, err := ppcsim.Run(ppcsim.Options{
						Trace: tr, Algorithm: alg, Disks: d, Scheduler: sched,
					})
					if err != nil {
						t.Fatalf("%s/%s/d=%d/%v: %v", name, alg, d, sched, err)
					}
					if r.CacheHits+r.CacheMisses != int64(len(tr.Refs)) {
						t.Errorf("%s/%s/d=%d/%v: served %d of %d refs",
							name, alg, d, sched, r.CacheHits+r.CacheMisses, len(tr.Refs))
					}
					if r.StallTimeSec < 0 || r.ElapsedSec < r.ComputeSec-1e-9 {
						t.Errorf("%s/%s/d=%d/%v: bad decomposition %+v", name, alg, d, sched, r)
					}
					if r.AvgUtilization < 0 || r.AvgUtilization > 1+1e-9 {
						t.Errorf("%s/%s/d=%d/%v: utilization %g", name, alg, d, sched, r.AvgUtilization)
					}
					if r.Fetches < int64(minDistinct(tr)) {
						t.Errorf("%s/%s/d=%d/%v: %d fetches below distinct-block floor %d",
							name, alg, d, sched, r.Fetches, minDistinct(tr))
					}
				}
			}
		}
	}
}

func minDistinct(tr *ppcsim.Trace) int {
	return tr.Stats().DistinctBlocks
}

// TestRunDeterministic: identical options give identical results for
// every algorithm.
func TestRunDeterministic(t *testing.T) {
	tr := truncated(t, "glimpse", 6000)
	for _, alg := range ppcsim.Algorithms {
		a, err := ppcsim.Run(ppcsim.Options{Trace: tr, Algorithm: alg, Disks: 3})
		if err != nil {
			t.Fatal(err)
		}
		b, err := ppcsim.Run(ppcsim.Options{Trace: tr, Algorithm: alg, Disks: 3})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: nondeterministic:\n%v\n%v", alg, a, b)
		}
	}
}

// TestOptionsValidation covers the public API's error paths.
func TestOptionsValidation(t *testing.T) {
	tr := truncated(t, "ld", 100)
	if _, err := ppcsim.Run(ppcsim.Options{Algorithm: ppcsim.Demand}); err == nil {
		t.Error("nil trace should fail")
	}
	if _, err := ppcsim.Run(ppcsim.Options{Trace: tr, Algorithm: "bogus"}); err == nil {
		t.Error("unknown algorithm should fail")
	}
	if _, err := ppcsim.NewTrace("bogus"); err == nil {
		t.Error("unknown trace should fail")
	}
	if _, err := ppcsim.Run(ppcsim.Options{Trace: tr, Algorithm: ppcsim.Demand, Disks: -1}); err == nil {
		t.Error("negative disks should fail")
	}
}

// TestDefaultDisksIsOne: zero Disks means a single-disk array.
func TestDefaultDisksIsOne(t *testing.T) {
	tr := truncated(t, "ld", 500)
	a, err := ppcsim.Run(ppcsim.Options{Trace: tr, Algorithm: ppcsim.Demand})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ppcsim.Run(ppcsim.Options{Trace: tr, Algorithm: ppcsim.Demand, Disks: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("zero disks should default to one")
	}
}

// TestSimpleDiskModel: the simplified model runs all algorithms and gives
// broadly similar elapsed times to the full model (the Table 2
// cross-validation property).
func TestSimpleDiskModel(t *testing.T) {
	tr := truncated(t, "xds", 4000)
	for _, alg := range []ppcsim.Algorithm{ppcsim.FixedHorizon, ppcsim.Aggressive} {
		full, err := ppcsim.Run(ppcsim.Options{Trace: tr, Algorithm: alg, Disks: 2})
		if err != nil {
			t.Fatal(err)
		}
		simple, err := ppcsim.Run(ppcsim.Options{Trace: tr, Algorithm: alg, Disks: 2, SimpleDiskModel: true})
		if err != nil {
			t.Fatal(err)
		}
		ratio := simple.ElapsedSec / full.ElapsedSec
		if ratio < 0.5 || ratio > 2.0 {
			t.Errorf("%s: simple/full elapsed ratio %g out of [0.5, 2]", alg, ratio)
		}
	}
}

// TestCustomDiskGeometry: a user-specified drive with the HP 97560's
// parameters reproduces the default model exactly; a faster spindle
// gives a faster run; a bad geometry is rejected.
func TestCustomDiskGeometry(t *testing.T) {
	tr := truncated(t, "postgres-select", 2500)
	g := ppcsim.HP97560Geometry()
	def, err := ppcsim.Run(ppcsim.Options{Trace: tr, Algorithm: ppcsim.Forestall, Disks: 2})
	if err != nil {
		t.Fatal(err)
	}
	same, err := ppcsim.Run(ppcsim.Options{Trace: tr, Algorithm: ppcsim.Forestall, Disks: 2, DiskGeometry: &g})
	if err != nil {
		t.Fatal(err)
	}
	if def.ElapsedSec != same.ElapsedSec || def.Fetches != same.Fetches {
		t.Errorf("HP geometry differs from default: %v vs %v", def, same)
	}
	fast := g
	fast.RPM *= 2
	faster, err := ppcsim.Run(ppcsim.Options{Trace: tr, Algorithm: ppcsim.Forestall, Disks: 2, DiskGeometry: &fast})
	if err != nil {
		t.Fatal(err)
	}
	if faster.ElapsedSec >= def.ElapsedSec {
		t.Errorf("double-RPM drive (%.3fs) should beat the stock drive (%.3fs)", faster.ElapsedSec, def.ElapsedSec)
	}
	bad := g
	bad.RPM = 0
	if _, err := ppcsim.Run(ppcsim.Options{Trace: tr, Algorithm: ppcsim.Forestall, Disks: 2, DiskGeometry: &bad}); err == nil {
		t.Error("invalid geometry should be rejected")
	}
}

// TestRunBestReverseAggressive picks the best grid point.
func TestRunBestReverseAggressive(t *testing.T) {
	tr := truncated(t, "cscope1", 3000)
	best, choice, err := ppcsim.RunBestReverseAggressive(
		ppcsim.Options{Trace: tr, Disks: 2},
		ppcsim.ReverseAggressiveGrid{Estimates: []float64{4, 32}, Batches: []int{8, 40}})
	if err != nil {
		t.Fatal(err)
	}
	var seenChoice bool
	for _, f := range []float64{4, 32} {
		for _, b := range []int{8, 40} {
			r, err := ppcsim.Run(ppcsim.Options{
				Trace: tr, Algorithm: ppcsim.ReverseAggressive, Disks: 2,
				FetchEstimate: f, BatchSize: b,
			})
			if err != nil {
				t.Fatal(err)
			}
			if r.ElapsedSec < best.ElapsedSec-1e-9 {
				t.Errorf("grid point F=%g b=%d (%g) beats reported best (%g)", f, b, r.ElapsedSec, best.ElapsedSec)
			}
			if choice.FetchEstimate == f && choice.BatchSize == b {
				seenChoice = true
				if r.ElapsedSec != best.ElapsedSec {
					t.Errorf("winning choice F=%g b=%d reruns to %g, reported best %g", f, b, r.ElapsedSec, best.ElapsedSec)
				}
			}
		}
	}
	if !seenChoice {
		t.Errorf("reported choice %+v is not a grid point", choice)
	}

	// A tie goes to the earliest point, estimates-major. On this slice
	// (F=3, b=80) and (F=8, b=40) tie for the minimum, and (F=3, b=40)
	// is slower: estimates-major order reaches (3, 80) first, while
	// batches-major order would reach (8, 40) first.
	tr = truncated(t, "cscope1", 1000)
	elapsed := func(f float64, b int) float64 {
		t.Helper()
		r, err := ppcsim.Run(ppcsim.Options{Trace: tr, Algorithm: ppcsim.ReverseAggressive, Disks: 1, FetchEstimate: f, BatchSize: b})
		if err != nil {
			t.Fatal(err)
		}
		return r.ElapsedSec
	}
	if a, b, first := elapsed(3, 80), elapsed(8, 40), elapsed(3, 40); a != b || first <= a {
		t.Fatalf("fixture moved: (3,80)=%g (8,40)=%g (3,40)=%g; want a tie below (3,40)", a, b, first)
	}
	best, choice, err = ppcsim.RunBestReverseAggressive(ppcsim.Options{Trace: tr, Disks: 1},
		ppcsim.ReverseAggressiveGrid{Estimates: []float64{3, 8}, Batches: []int{40, 80}})
	if err != nil {
		t.Fatal(err)
	}
	if want := (ppcsim.ReverseAggressiveChoice{FetchEstimate: 3, BatchSize: 80}); choice != want {
		t.Errorf("tie went to %+v, want the earlier point %+v", choice, want)
	}
	if best.ElapsedSec != elapsed(3, 80) {
		t.Errorf("best elapsed %g, want the tied %g", best.ElapsedSec, elapsed(3, 80))
	}

	// An Observer sees the grid points one at a time (-race checks it),
	// and a bad grid point fails the search with its ConfigError.
	grid := ppcsim.ReverseAggressiveGrid{Estimates: []float64{3, 8}, Batches: []int{40}}
	if _, _, err := ppcsim.RunBestReverseAggressive(ppcsim.Options{Trace: tr, Observer: ppcsim.NewRecorder()}, grid); err != nil {
		t.Fatal(err)
	}
	grid.Batches = []int{40, -1}
	var ce *ppcsim.ConfigError
	if _, _, err := ppcsim.RunBestReverseAggressive(ppcsim.Options{Trace: tr}, grid); !errors.As(err, &ce) || ce.Field != "BatchSize" {
		t.Errorf("grid with batch -1: err %v, want a ConfigError on BatchSize", err)
	}
}

// TestPlacementSeedChangesLayoutNotCorrectness: different placement seeds
// shuffle file positions but every run still serves the whole trace.
func TestPlacementSeedChangesLayoutNotCorrectness(t *testing.T) {
	tr := truncated(t, "cscope2", 4000)
	var elapsed []float64
	for _, seed := range []int64{0, 1, 2} {
		r, err := ppcsim.Run(ppcsim.Options{Trace: tr, Algorithm: ppcsim.Aggressive, Disks: 3, PlacementSeed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if r.CacheHits+r.CacheMisses != int64(len(tr.Refs)) {
			t.Fatal("not all refs served")
		}
		elapsed = append(elapsed, r.ElapsedSec)
	}
	if elapsed[0] == elapsed[1] && elapsed[1] == elapsed[2] {
		t.Log("placement seeds gave identical elapsed times (possible but unlikely)")
	}
}

// TestRandomTracesAllAlgorithms is the main property-based integration
// test: arbitrary random traces must run to completion under every
// algorithm with all invariants intact.
func TestRandomTracesAllAlgorithms(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := tracetest.Random(rng, tracetest.RandomConfig{
			MaxBlocks: 64, MaxRefs: 529, RandomPlacement: true,
		})
		n := len(tr.Refs)
		disks := 1 + rng.Intn(6)
		for _, alg := range ppcsim.Algorithms {
			r, err := ppcsim.Run(ppcsim.Options{Trace: tr, Algorithm: alg, Disks: disks})
			if err != nil {
				t.Logf("seed %d %s: %v", seed, alg, err)
				return false
			}
			if r.CacheHits+r.CacheMisses != int64(n) {
				t.Logf("seed %d %s: served %d of %d", seed, alg, r.CacheHits+r.CacheMisses, n)
				return false
			}
			if r.ElapsedSec < r.ComputeSec-1e-9 || math.IsNaN(r.ElapsedSec) {
				t.Logf("seed %d %s: bad elapsed %g", seed, alg, r.ElapsedSec)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
