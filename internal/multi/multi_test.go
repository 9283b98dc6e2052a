package multi

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ppcsim/internal/disk"
	"ppcsim/internal/layout"
	"ppcsim/internal/trace"
)

// fixedModel serves every request in a constant time.
type fixedModel struct{ ms float64 }

func (m fixedModel) Service(int64, float64) float64 { return m.ms }

func fixed(ms float64) func() disk.Model {
	return func() disk.Model { return fixedModel{ms} }
}

// loopTrace builds passes sequential passes over n blocks.
func loopTrace(name string, n, passes int, computeMs float64) *trace.Trace {
	tr := &trace.Trace{
		Name:        name,
		Files:       []layout.File{{First: 0, Blocks: n}},
		CacheBlocks: n,
	}
	for p := 0; p < passes; p++ {
		for i := 0; i < n; i++ {
			tr.Refs = append(tr.Refs, trace.Ref{Block: layout.BlockID(i), ComputeMs: computeMs})
		}
	}
	return tr
}

// randTrace builds a uniform random trace.
func randTrace(name string, nBlocks, n int, computeMs float64, seed int64) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := &trace.Trace{
		Name:        name,
		Files:       []layout.File{{First: 0, Blocks: nBlocks}},
		CacheBlocks: nBlocks,
	}
	for i := 0; i < n; i++ {
		tr.Refs = append(tr.Refs, trace.Ref{Block: layout.BlockID(rng.Intn(nBlocks)), ComputeMs: computeMs})
	}
	return tr
}

func TestConfigValidation(t *testing.T) {
	tr := loopTrace("a", 10, 1, 1)
	w := loopTrace("w", 4, 1, 1)
	w.Refs[0].Write = true
	bad := loopTrace("bad", 4, 1, 1)
	bad.Refs[0].Block = 99
	cases := []struct {
		cfg   Config
		field string
	}{
		{Config{Disks: 1, CacheBlocks: 10}, "Processes"},
		{Config{Processes: []ProcessSpec{{Trace: tr}}, Disks: 0, CacheBlocks: 10}, "Disks"},
		{Config{Processes: []ProcessSpec{{Trace: tr}}, Disks: 1, CacheBlocks: 1}, "CacheBlocks"},
		{Config{Processes: []ProcessSpec{{Trace: nil}}, Disks: 1, CacheBlocks: 10}, "Processes"},
		{Config{Processes: []ProcessSpec{{Trace: bad}}, Disks: 1, CacheBlocks: 10}, "Processes"},
		{Config{Processes: []ProcessSpec{{Trace: tr}}, Disks: 1, CacheBlocks: 10, DriverOverheadMs: math.NaN()}, "DriverOverheadMs"},
		{Config{Processes: []ProcessSpec{{Trace: tr}}, Disks: 1, CacheBlocks: 10, DriverOverheadMs: math.Inf(1)}, "DriverOverheadMs"},
		// Writes are not supported in multi-process runs.
		{Config{Processes: []ProcessSpec{{Trace: w}}, Disks: 1, CacheBlocks: 8}, "Processes"},
	}
	for i, c := range cases {
		_, err := Run(c.cfg)
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Field != c.field {
			t.Errorf("case %d: err %v, want a *ConfigError on %s", i, err, c.field)
		}
	}
}

func TestSingleProcessSanity(t *testing.T) {
	tr := loopTrace("solo", 50, 4, 1)
	res, err := Run(Config{
		Processes:   []ProcessSpec{{Trace: tr, Algorithm: FixedHorizon, Hinted: true}},
		Disks:       2,
		CacheBlocks: 64,
		Model:       fixed(4),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Processes) != 1 {
		t.Fatalf("got %d process results", len(res.Processes))
	}
	p := res.Processes[0]
	if p.CacheHits+p.CacheMisses != 200 {
		t.Errorf("served %d refs, want 200", p.CacheHits+p.CacheMisses)
	}
	if p.Fetches != 50 {
		t.Errorf("fetches = %d, want 50 (everything fits)", p.Fetches)
	}
	if p.ElapsedSec < p.ComputeSec {
		t.Errorf("elapsed %g < compute %g", p.ElapsedSec, p.ComputeSec)
	}
	if res.ElapsedSec != p.ElapsedSec {
		t.Errorf("run elapsed %g != process elapsed %g", res.ElapsedSec, p.ElapsedSec)
	}
}

func TestTwoProcessesShareTheArray(t *testing.T) {
	a := loopTrace("a", 80, 3, 1)
	b := loopTrace("b", 80, 3, 1)
	res, err := Run(Config{
		Processes: []ProcessSpec{
			{Trace: a, Algorithm: FixedHorizon, Hinted: true},
			{Trace: b, Algorithm: FixedHorizon, Hinted: true},
		},
		Disks:       2,
		CacheBlocks: 200,
		Model:       fixed(4),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Processes {
		if p.CacheHits+p.CacheMisses != 240 {
			t.Errorf("%s: served %d refs, want 240", p.Name, p.CacheHits+p.CacheMisses)
		}
		if p.Fetches < 80 {
			t.Errorf("%s: fetches %d below distinct count", p.Name, p.Fetches)
		}
	}
	// Solo run of the same trace must be at least as fast as the shared
	// run (competition cannot help).
	solo, err := Run(Config{
		Processes:   []ProcessSpec{{Trace: a, Algorithm: FixedHorizon, Hinted: true}},
		Disks:       2,
		CacheBlocks: 200,
		Model:       fixed(4),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Processes[0].ElapsedSec < solo.Processes[0].ElapsedSec-1e-9 {
		t.Errorf("sharing made process a faster: %g vs solo %g",
			res.Processes[0].ElapsedSec, solo.Processes[0].ElapsedSec)
	}
}

// TestPaperPredictionAggressiveHurtsNeighbors pins the paper's section-6
// prediction: a co-running non-hinting process suffers more next to an
// aggressively prefetching process than next to a fixed-horizon one.
func TestPaperPredictionAggressiveHurtsNeighbors(t *testing.T) {
	victim := func() *trace.Trace { return randTrace("victim", 300, 1500, 2, 5) }
	hog := func() *trace.Trace { return loopTrace("hog", 400, 8, 0.5) }
	run := func(alg Algorithm) ProcessResult {
		res, err := Run(Config{
			Processes: []ProcessSpec{
				{Trace: hog(), Algorithm: alg, Hinted: true},
				{Trace: victim(), Hinted: false},
			},
			Disks:       1,
			CacheBlocks: 450,
			Model:       fixed(6),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Processes[1]
	}
	nextToFH := run(FixedHorizon)
	nextToAgg := run(Aggressive)
	if nextToAgg.ElapsedSec <= nextToFH.ElapsedSec {
		t.Errorf("paper prediction failed: victim next to aggressive (%.3fs) should be slower than next to fixed horizon (%.3fs)",
			nextToAgg.ElapsedSec, nextToFH.ElapsedSec)
	}
}

func TestForestallInMulti(t *testing.T) {
	tr := loopTrace("fo", 200, 5, 1)
	res, err := Run(Config{
		Processes:   []ProcessSpec{{Trace: tr, Algorithm: Forestall, Hinted: true}},
		Disks:       2,
		CacheBlocks: 128,
		Model:       fixed(5),
	})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Processes[0]
	if p.CacheHits+p.CacheMisses != 1000 {
		t.Fatalf("served %d refs, want 1000", p.CacheHits+p.CacheMisses)
	}
	// Forestall should be competitive with the better of FH/aggressive.
	best := 1e18
	for _, alg := range []Algorithm{FixedHorizon, Aggressive} {
		r, err := Run(Config{
			Processes:   []ProcessSpec{{Trace: tr, Algorithm: alg, Hinted: true}},
			Disks:       2,
			CacheBlocks: 128,
			Model:       fixed(5),
		})
		if err != nil {
			t.Fatal(err)
		}
		if r.Processes[0].ElapsedSec < best {
			best = r.Processes[0].ElapsedSec
		}
	}
	if p.ElapsedSec > best*1.15 {
		t.Errorf("multi forestall %.3fs vs best %.3fs", p.ElapsedSec, best)
	}
}

func TestUnhintedUsesLRUValuation(t *testing.T) {
	// An unhinted process with a small loop should keep its working set
	// resident (LRU works for loops that fit).
	tr := loopTrace("small", 20, 10, 1)
	res, err := Run(Config{
		Processes:   []ProcessSpec{{Trace: tr, Hinted: false}},
		Disks:       1,
		CacheBlocks: 64,
		Model:       fixed(4),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Processes[0].Fetches != 20 {
		t.Errorf("fetches = %d, want 20 (loop fits in cache)", res.Processes[0].Fetches)
	}
}

func TestManyProcessesRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nProcs := 1 + rng.Intn(4)
		var specs []ProcessSpec
		total := 0
		for i := 0; i < nProcs; i++ {
			n := 20 + rng.Intn(120)
			blocks := 5 + rng.Intn(40)
			tr := randTrace("r", blocks, n, rng.Float64()*3, rng.Int63())
			total += n
			spec := ProcessSpec{Trace: tr, Hinted: rng.Intn(2) == 0}
			if spec.Hinted {
				if rng.Intn(2) == 0 {
					spec.Algorithm = FixedHorizon
				} else {
					spec.Algorithm = Aggressive
				}
			}
			specs = append(specs, spec)
		}
		res, err := Run(Config{
			Processes:   specs,
			Disks:       1 + rng.Intn(4),
			CacheBlocks: 8 + rng.Intn(64),
			Model:       fixed(1 + rng.Float64()*8),
		})
		if err != nil {
			t.Log(err)
			return false
		}
		served := int64(0)
		for _, p := range res.Processes {
			served += p.CacheHits + p.CacheMisses
			if p.StallTimeSec < 0 || p.ElapsedSec < p.ComputeSec-1e-9 {
				t.Logf("%s: bad decomposition %+v", p.Name, p)
				return false
			}
		}
		return served == int64(total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestHintedPrefetchingBeatsUnhinted(t *testing.T) {
	tr := loopTrace("big", 300, 4, 1)
	hinted, err := Run(Config{
		Processes:   []ProcessSpec{{Trace: tr, Algorithm: FixedHorizon, Hinted: true}},
		Disks:       2,
		CacheBlocks: 128,
		Model:       fixed(5),
	})
	if err != nil {
		t.Fatal(err)
	}
	unhinted, err := Run(Config{
		Processes:   []ProcessSpec{{Trace: tr, Hinted: false}},
		Disks:       2,
		CacheBlocks: 128,
		Model:       fixed(5),
	})
	if err != nil {
		t.Fatal(err)
	}
	if hinted.Processes[0].ElapsedSec >= unhinted.Processes[0].ElapsedSec {
		t.Errorf("hinted prefetching (%.3fs) should beat unhinted demand (%.3fs)",
			hinted.Processes[0].ElapsedSec, unhinted.Processes[0].ElapsedSec)
	}
}
