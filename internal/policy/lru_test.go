package policy

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"ppcsim/internal/engine"
	"ppcsim/internal/layout"
	"ppcsim/internal/trace"
)

func TestLRUMissesEverythingOnLoop(t *testing.T) {
	// The classic pathology: a cyclic loop one block larger than the
	// cache makes LRU miss every reference, while MIN misses only
	// N-K per pass.
	const n, k, passes = 30, 25, 5
	tr := loopTrace(n, passes, 1.0, k)
	lru := mustRun(t, engine.Config{Trace: tr, Policy: NewDemandLRU(), Disks: 1, Model: fixed(4)})
	if lru.Fetches != int64(n*passes) {
		t.Errorf("LRU fetches = %d, want %d (every reference misses)", lru.Fetches, n*passes)
	}
	min := mustRun(t, engine.Config{Trace: tr, Policy: NewDemand(), Disks: 1, Model: fixed(4)})
	if want := int64(n + (passes-1)*(n-k)); min.Fetches != want {
		t.Errorf("MIN fetches = %d, want %d", min.Fetches, want)
	}
	if lru.ElapsedSec <= min.ElapsedSec {
		t.Errorf("LRU (%g) should be slower than MIN (%g)", lru.ElapsedSec, min.ElapsedSec)
	}
}

func TestLRUEqualsMINWhenEverythingFits(t *testing.T) {
	tr := loopTrace(40, 4, 1.0, 64)
	lru := mustRun(t, engine.Config{Trace: tr, Policy: NewDemandLRU(), Disks: 1, Model: fixed(4)})
	min := mustRun(t, engine.Config{Trace: tr, Policy: NewDemand(), Disks: 1, Model: fixed(4)})
	if lru.Fetches != min.Fetches || lru.Fetches != 40 {
		t.Errorf("fetches lru=%d min=%d, want 40", lru.Fetches, min.Fetches)
	}
}

// TestLRUNeverBeatsMIN: Belady's optimality, observed through the
// simulator — on any trace, offline MIN replacement never fetches more
// than LRU.
func TestLRUNeverBeatsMIN(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nBlocks := 4 + rng.Intn(30)
		n := 40 + rng.Intn(300)
		tr := &trace.Trace{
			Name:        "rand",
			Files:       []layout.File{{First: 0, Blocks: nBlocks}},
			CacheBlocks: 2 + rng.Intn(nBlocks),
		}
		for i := 0; i < n; i++ {
			tr.Refs = append(tr.Refs, trace.Ref{
				Block:     layout.BlockID(rng.Intn(nBlocks)),
				ComputeMs: 1,
			})
		}
		cfg := engine.Config{Trace: tr, Disks: 1, Model: fixed(3)}
		cfg.Policy = NewDemandLRU()
		lru, err := engine.Run(cfg)
		if err != nil {
			t.Log(err)
			return false
		}
		cfg.Policy = NewDemand()
		min, err := engine.Run(cfg)
		if err != nil {
			t.Log(err)
			return false
		}
		if min.Fetches > lru.Fetches {
			t.Logf("seed %d: MIN %d fetches > LRU %d", seed, min.Fetches, lru.Fetches)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestLRUOnBundledTraces(t *testing.T) {
	for _, name := range []string{"glimpse", "postgres-select"} {
		tr, err := trace.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tr = tr.Truncate(4000)
		lru := mustRun(t, engine.Config{Trace: tr, Policy: NewDemandLRU(), Disks: 2})
		min := mustRun(t, engine.Config{Trace: tr, Policy: NewDemand(), Disks: 2})
		if min.Fetches > lru.Fetches {
			t.Errorf("%s: MIN fetches %d > LRU %d", name, min.Fetches, lru.Fetches)
		}
		if lru.CacheHits+lru.CacheMisses != int64(len(tr.Refs)) {
			t.Errorf("%s: not every reference served", name)
		}
	}
}

// TestHintlessStreamAllocationIsFlat streams the hint-less policies over
// a zipf source whose blocks all fit the cache, at n and at 4n
// references, and requires the bytes allocated to differ by less than a
// slack fixed before measuring: 1 MiB. Such a run evicts nothing, so a
// recency structure that holds an entry per reference until an eviction
// clears it grows without bound: the boxed heap the lists replaced
// allocated 8.3 MB at n and 32.5 MB at 4n here, the lists 0.34 MB at
// both.
func TestHintlessStreamAllocationIsFlat(t *testing.T) {
	const n, slack = 100_000, 1 << 20
	alloc := func(mk func() engine.Policy, refs int64) uint64 {
		src, err := trace.LargeSpec{Refs: refs, Blocks: 1024, Pattern: "zipf", Seed: 1}.Source()
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		mustRun(t, engine.Config{
			Source: src, Policy: mk(), Disks: 1, CacheBlocks: 2048, Model: fixed(4),
			Hints: &engine.HintSpec{Fraction: 1, Accuracy: 1, Window: 1000},
		})
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for name, mk := range map[string]func() engine.Policy{
		"demand-lru": func() engine.Policy { return NewDemandLRU() },
		"readahead":  func() engine.Policy { return NewReadahead() },
		"history":    func() engine.Policy { return NewHistory() },
	} {
		short, long := alloc(mk, n), alloc(mk, 4*n)
		if long > short+slack || short > long+slack {
			t.Errorf("%s: %d refs allocate %d B, %d refs %d B; want within %d B", name, n, short, 4*n, long, slack)
		}
	}
}
