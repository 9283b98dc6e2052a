package engine

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"ppcsim/internal/cache"
	"ppcsim/internal/disk"
	"ppcsim/internal/future"
	"ppcsim/internal/layout"
	"ppcsim/internal/trace"
)

// fixedModel serves every request in a constant time.
type fixedModel struct{ ms float64 }

func (m fixedModel) Service(int64, float64) float64 { return m.ms }

// demandPolicy is a minimal in-package demand fetcher for engine tests.
type demandPolicy struct{ s *State }

func (d *demandPolicy) Name() string    { return "test-demand" }
func (d *demandPolicy) Attach(s *State) { d.s = s }
func (d *demandPolicy) Poll()           {}
func (d *demandPolicy) OnStall(b layout.BlockID) {
	if d.s.Cache.FreeBuffers() > 0 {
		d.s.Issue(b, cache.NoBlock)
		return
	}
	v, _ := d.s.Cache.FurthestEvictable()
	d.s.Issue(b, v)
}

// mkTrace builds a trace over one file of nBlocks with the given refs and
// uniform compute time.
func mkTrace(nBlocks int, computeMs float64, ids ...int) *trace.Trace {
	tr := &trace.Trace{
		Name:        "test",
		Files:       []layout.File{{First: 0, Blocks: nBlocks}},
		CacheBlocks: 2,
	}
	for _, id := range ids {
		tr.Refs = append(tr.Refs, trace.Ref{Block: layout.BlockID(id), ComputeMs: computeMs})
	}
	return tr
}

func TestDemandHandComputed(t *testing.T) {
	// Two blocks, cache of two, 10ms disk, 1ms compute, 0.5ms driver.
	// refs: 0 1 0 1. Both fetches stall 10ms; the re-references hit.
	tr := mkTrace(2, 1.0, 0, 1, 0, 1)
	res, err := Run(Config{
		Trace:  tr,
		Policy: &demandPolicy{},
		Disks:  1,
		Model:  func() disk.Model { return fixedModel{10} },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fetches != 2 {
		t.Errorf("fetches = %d, want 2", res.Fetches)
	}
	// Timeline: ref0 at t=1 stalls to 11; ref1 at 12 stalls to 22; ref2
	// at 23; ref3 at 24.
	if math.Abs(res.ElapsedSec-0.024) > 1e-9 {
		t.Errorf("elapsed = %g s, want 0.024", res.ElapsedSec)
	}
	if math.Abs(res.DriverTimeSec-0.001) > 1e-9 {
		t.Errorf("driver = %g s, want 0.001", res.DriverTimeSec)
	}
	// Stall residual: 24 - 4 (compute) - 1 (driver) = 19 ms.
	if math.Abs(res.StallTimeSec-0.019) > 1e-9 {
		t.Errorf("stall = %g s, want 0.019", res.StallTimeSec)
	}
	if res.CacheHits != 2 || res.CacheMisses != 2 {
		t.Errorf("hits=%d misses=%d, want 2/2", res.CacheHits, res.CacheMisses)
	}
}

func TestDecompositionIdentity(t *testing.T) {
	tr, _ := trace.ByName("cscope1")
	tr = tr.Truncate(3000)
	for _, disks := range []int{1, 3} {
		res, err := Run(Config{Trace: tr, Policy: &demandPolicy{}, Disks: disks})
		if err != nil {
			t.Fatal(err)
		}
		sum := res.ComputeSec + res.DriverTimeSec + res.StallTimeSec
		if res.StallTimeSec > 0 && math.Abs(sum-res.ElapsedSec) > 1e-6 {
			t.Errorf("d=%d: cpu+driver+stall = %g, elapsed = %g", disks, sum, res.ElapsedSec)
		}
		if res.ElapsedSec < res.ComputeSec {
			t.Errorf("d=%d: elapsed %g < compute %g", disks, res.ElapsedSec, res.ComputeSec)
		}
		if int64(res.CacheHits+res.CacheMisses) != int64(len(tr.Refs)) {
			t.Errorf("d=%d: hits+misses = %d, want %d", disks, res.CacheHits+res.CacheMisses, len(tr.Refs))
		}
	}
}

func TestDemandMissCountOnLoop(t *testing.T) {
	// A cyclic loop of N blocks with a K-block cache under offline MIN
	// replacement misses N on the first pass and N-K on each later pass
	// (the paper's synth arithmetic: 37280 = 2000 + 49*720).
	const n, k, passes = 40, 25, 6
	var ids []int
	for p := 0; p < passes; p++ {
		for i := 0; i < n; i++ {
			ids = append(ids, i)
		}
	}
	tr := mkTrace(n, 1.0, ids...)
	tr.CacheBlocks = k
	res, err := Run(Config{
		Trace:  tr,
		Policy: &demandPolicy{},
		Disks:  1,
		Model:  func() disk.Model { return fixedModel{5} },
	})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(n + (passes-1)*(n-k))
	if res.Fetches != want {
		t.Errorf("fetches = %d, want %d (MIN replacement on a loop)", res.Fetches, want)
	}
}

// TestConfigValidation runs every setup rejection through both entry
// points, a resident Config.Trace and a streamed Config.Source with a
// bounded window, so each rule (stated once in the engine) is shown to
// fire from either. Stream-only rejections live in the policy package's
// TestStreamingGuards.
func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{Policy: &demandPolicy{}, Disks: 1}); err == nil {
		t.Error("run with neither Trace nor Source accepted")
	}
	cases := []struct {
		name   string
		mutate func(tr *trace.Trace, cfg *Config)
	}{
		{"valid", nil},
		{"nil policy", func(_ *trace.Trace, cfg *Config) { cfg.Policy = nil }},
		{"zero disks", func(_ *trace.Trace, cfg *Config) { cfg.Disks = 0 }},
		{"negative disks", func(_ *trace.Trace, cfg *Config) { cfg.Disks = -1 }},
		{"cache of one block", func(_ *trace.Trace, cfg *Config) { cfg.CacheBlocks = 1 }},
		{"hint fraction", func(_ *trace.Trace, cfg *Config) { cfg.Hints.Fraction = 1.5 }},
		{"hint accuracy", func(_ *trace.Trace, cfg *Config) { cfg.Hints.Accuracy = -0.1 }},
		{"hint window", func(_ *trace.Trace, cfg *Config) { cfg.Hints.Window = WindowNone - 1 }},
		{"non-contiguous files", func(tr *trace.Trace, _ *Config) {
			tr.Files = []layout.File{{First: 0, Blocks: 2}, {First: 3, Blocks: 2}}
		}},
		{"empty file", func(tr *trace.Trace, _ *Config) {
			tr.Files = []layout.File{{First: 0, Blocks: 4}, {First: 4, Blocks: 0}}
		}},
		{"block out of range", func(tr *trace.Trace, _ *Config) { tr.Refs[3].Block = 4 }},
		{"negative block", func(tr *trace.Trace, _ *Config) { tr.Refs[1].Block = -1 }},
		{"NaN compute", func(tr *trace.Trace, _ *Config) { tr.Refs[2].ComputeMs = math.NaN() }},
		{"infinite compute", func(tr *trace.Trace, _ *Config) { tr.Refs[2].ComputeMs = math.Inf(1) }},
		{"negative compute", func(tr *trace.Trace, _ *Config) { tr.Refs[0].ComputeMs = -1 }},
		{"total compute overflow", func(tr *trace.Trace, _ *Config) {
			tr.Refs[4].ComputeMs, tr.Refs[5].ComputeMs = math.MaxFloat64, math.MaxFloat64
		}},
	}
	for _, c := range cases {
		for _, streamed := range []bool{false, true} {
			tr := mkTrace(4, 1.0, 0, 1, 2, 3, 0, 1)
			cfg := Config{
				Policy: &demandPolicy{}, Disks: 1,
				Model: func() disk.Model { return fixedModel{5} },
				Hints: &HintSpec{Fraction: 1, Accuracy: 1, Window: 2},
			}
			if c.mutate != nil {
				c.mutate(tr, &cfg)
			}
			if streamed {
				cfg.Source = tr.Source()
			} else {
				cfg.Trace = tr
			}
			_, err := Run(cfg)
			switch {
			case c.mutate == nil && err != nil:
				t.Errorf("%s (streamed %t): rejected: %v", c.name, streamed, err)
			case c.mutate != nil && err == nil:
				t.Errorf("%s (streamed %t): accepted", c.name, streamed)
			}
		}
	}
}

// brokenPolicy never fetches.
type brokenPolicy struct{ demandPolicy }

func (b *brokenPolicy) Attach(s *State)        { b.s = s }
func (b *brokenPolicy) OnStall(layout.BlockID) {}
func (b *brokenPolicy) Name() string           { return "broken" }

func TestPolicyMustFetchStalledBlock(t *testing.T) {
	tr := mkTrace(2, 1.0, 0, 1)
	if _, err := Run(Config{Trace: tr, Policy: &brokenPolicy{}, Disks: 1}); err == nil {
		t.Error("expected error when policy never fetches")
	}
}

// illegalPolicy issues a fetch for a block that is already present.
type illegalPolicy struct{ demandPolicy }

func (p *illegalPolicy) Attach(s *State) { p.s = s }
func (p *illegalPolicy) Name() string    { return "illegal" }
func (p *illegalPolicy) OnStall(b layout.BlockID) {
	p.s.Issue(b, cache.NoBlock)
	p.s.Issue(b, cache.NoBlock) // double fetch: illegal
}

func TestIllegalIssueAborts(t *testing.T) {
	tr := mkTrace(2, 1.0, 0, 1)
	if _, err := Run(Config{Trace: tr, Policy: &illegalPolicy{}, Disks: 1}); err == nil {
		t.Error("expected error from illegal issue")
	}
}

// TestIllegalIssueNamesPolicy: the error of an illegal fetch names the
// policy that issued it, not the engine's own state type.
func TestIllegalIssueNamesPolicy(t *testing.T) {
	_, err := Run(Config{Trace: mkTrace(2, 1.0, 0, 1), Policy: &illegalPolicy{}, Disks: 1})
	if err == nil || !strings.HasPrefix(err.Error(), "policy illegal: ") {
		t.Errorf("illegal issue: error %v, want it to start with \"policy illegal: \"", err)
	}
}

func TestDeterminism(t *testing.T) {
	tr, _ := trace.ByName("ld")
	tr = tr.Truncate(2000)
	cfg := Config{Trace: tr, Policy: &demandPolicy{}, Disks: 3}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Policy = &demandPolicy{}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("nondeterministic results:\n%v\n%v", a, b)
	}
}

func TestDriverOverheadSettings(t *testing.T) {
	tr := mkTrace(2, 1.0, 0, 1)
	zero, err := Run(Config{Trace: tr, Policy: &demandPolicy{}, Disks: 1, DriverOverheadMs: -1})
	if err != nil {
		t.Fatal(err)
	}
	if zero.DriverTimeSec != 0 {
		t.Errorf("driver time with overhead disabled = %g", zero.DriverTimeSec)
	}
	def, _ := Run(Config{Trace: tr, Policy: &demandPolicy{}, Disks: 1})
	if math.Abs(def.DriverTimeSec-0.001) > 1e-9 {
		t.Errorf("default driver time = %g s, want 0.001", def.DriverTimeSec)
	}
	big, _ := Run(Config{Trace: tr, Policy: &demandPolicy{}, Disks: 1, DriverOverheadMs: 2})
	if math.Abs(big.DriverTimeSec-0.004) > 1e-9 {
		t.Errorf("custom driver time = %g s, want 0.004", big.DriverTimeSec)
	}
}

// hookPolicy records completion callbacks.
type hookPolicy struct {
	demandPolicy
	completions int
}

func (h *hookPolicy) Attach(s *State) {
	h.s = s
	s.OnComplete = func(d int, svc float64) {
		if svc <= 0 {
			panic("bad service time")
		}
		h.completions++
	}
}

func TestCompletionHook(t *testing.T) {
	tr := mkTrace(4, 1.0, 0, 1, 2, 3)
	h := &hookPolicy{}
	res, err := Run(Config{Trace: tr, Policy: h, Disks: 2, CacheBlocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if int64(h.completions) != res.Fetches {
		t.Errorf("hook saw %d completions, want %d", h.completions, res.Fetches)
	}
}

func TestUtilizationBounds(t *testing.T) {
	tr, _ := trace.ByName("cscope1")
	tr = tr.Truncate(2000)
	for _, d := range []int{1, 2, 8} {
		res, err := Run(Config{Trace: tr, Policy: &demandPolicy{}, Disks: d})
		if err != nil {
			t.Fatal(err)
		}
		if res.AvgUtilization < 0 || res.AvgUtilization > 1.0+1e-9 {
			t.Errorf("d=%d: utilization %g out of range", d, res.AvgUtilization)
		}
		if res.AvgFetchMs <= 0 {
			t.Errorf("d=%d: avg fetch %g", d, res.AvgFetchMs)
		}
	}
}

func TestResultString(t *testing.T) {
	tr := mkTrace(2, 1.0, 0, 1)
	res, err := Run(Config{Trace: tr, Policy: &demandPolicy{}, Disks: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s := res.String(); s == "" {
		t.Error("empty String()")
	}
}

// assertFiniteFloats walks v (a struct value) and fails on any float64
// field that is NaN or infinite, recursing into nested structs/slices.
func assertFiniteFloats(t *testing.T, path string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Float64:
		f := v.Float()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			t.Errorf("%s = %v, want finite", path, f)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			assertFiniteFloats(t, path+"."+v.Type().Field(i).Name, v.Field(i))
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			assertFiniteFloats(t, fmt.Sprintf("%s[%d]", path, i), v.Index(i))
		}
	case reflect.Pointer:
		if !v.IsNil() {
			assertFiniteFloats(t, path, v.Elem())
		}
	}
}

// TestZeroLengthTraceFiniteMetrics pins the degenerate empty-trace run:
// no elapsed time and no fetches must not turn the derived averages
// (utilization, response, fetch time) into NaN via 0/0.
func TestZeroLengthTraceFiniteMetrics(t *testing.T) {
	tr := mkTrace(4, 1.0) // no references at all
	tr.CacheBlocks = 2
	res, err := Run(Config{Trace: tr, Policy: &demandPolicy{}, Disks: 3})
	if err != nil {
		t.Fatal(err)
	}
	assertFiniteFloats(t, "Result", reflect.ValueOf(res))
	if res.ElapsedSec != 0 || res.Fetches != 0 || res.CacheHits != 0 {
		t.Errorf("empty trace produced work: %+v", res)
	}
	if len(res.PerDisk) != 3 {
		t.Fatalf("PerDisk has %d entries, want 3", len(res.PerDisk))
	}
	for i, d := range res.PerDisk {
		if d.Fetches != 0 || d.Utilization != 0 {
			t.Errorf("disk %d did work on an empty trace: %+v", i, d)
		}
	}
}

// lateIndexPolicy fetches on demand and asks for the disk index only
// once the cursor has reached at; from then on every poll checks that a
// fresh cursor on each disk starts at the disk's first position at or
// after the run's cursor.
type lateIndexPolicy struct {
	demandPolicy
	t       *testing.T
	at      int
	checked int
}

func (p *lateIndexPolicy) Attach(s *State) { p.s = s }

func (p *lateIndexPolicy) Poll() {
	c := p.s.Cursor()
	if c < p.at {
		return
	}
	x := p.s.DiskIndex()
	for d := range p.s.Drives {
		want := future.Never
		for q := c; q < p.s.Len(); q++ {
			if p.s.DiskOf(p.s.Ref(q)) == d {
				want = q
				break
			}
		}
		cur := x.Cursor(d)
		if got := cur.Pos(); got != want {
			p.t.Fatalf("cursor %d: disk %d index starts at %d, want %d", c, d, got, want)
		}
	}
	p.checked++
}

// TestLazyDiskIndexStartsAtCursor: a disk index first built mid-run
// pops the positions already behind the cursor, as one built at setup
// would have.
func TestLazyDiskIndexStartsAtCursor(t *testing.T) {
	ids := make([]int, 300)
	for i := range ids {
		ids[i] = (i * 7) % 23
	}
	p := &lateIndexPolicy{t: t, at: 100}
	if _, err := Run(Config{Trace: mkTrace(23, 1, ids...), Policy: p, Disks: 3, Model: func() disk.Model { return fixedModel{ms: 2} }}); err != nil {
		t.Fatal(err)
	}
	if p.checked == 0 {
		t.Fatal("the index was never checked")
	}
}
