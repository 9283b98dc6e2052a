package revagg

import (
	"container/heap"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"ppcsim/internal/cache"
	"ppcsim/internal/engine"
	"ppcsim/internal/future"
	"ppcsim/internal/layout"
	"ppcsim/internal/policy"
	"ppcsim/internal/spec"
	"ppcsim/internal/trace"
	"ppcsim/internal/trace/tracetest"
)

func mkRefs(ids ...int) []layout.BlockID {
	out := make([]layout.BlockID, len(ids))
	for i, v := range ids {
		out[i] = layout.BlockID(v)
	}
	return out
}

func modDisk(d int) func(layout.BlockID) int {
	return func(b layout.BlockID) int { return int(b) % d }
}

func TestBuildScheduleValidation(t *testing.T) {
	refs := mkRefs(0, 1)
	if _, err := BuildSchedule(refs, modDisk(1), 2, 1, 0, 2, 1); err == nil {
		t.Error("zero capacity should fail")
	}
	if _, err := BuildSchedule(refs, modDisk(1), 2, 1, 2, 0, 1); err == nil {
		t.Error("zero F should fail")
	}
	if _, err := BuildSchedule(refs, modDisk(1), 2, 1, 2, 2, 0); err == nil {
		t.Error("zero batch should fail")
	}
}

func TestScheduleCoversColdCache(t *testing.T) {
	// Everything fits in cache: the schedule must fetch each distinct
	// block exactly once, with no evictions.
	refs := mkRefs(0, 1, 2, 3, 0, 1, 2, 3)
	sched, err := BuildSchedule(refs, modDisk(2), 4, 2, 8, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Ops) != 4 {
		t.Fatalf("ops = %d, want 4", len(sched.Ops))
	}
	seen := map[layout.BlockID]bool{}
	for _, op := range sched.Ops {
		if op.Evict != cache.NoBlock {
			t.Errorf("unexpected eviction of %d", op.Evict)
		}
		if seen[op.Fetch] {
			t.Errorf("block %d fetched twice", op.Fetch)
		}
		seen[op.Fetch] = true
	}
}

// checkScheduleLegal verifies the structural invariants of a schedule
// against the forward sequence.
func checkScheduleLegal(t *testing.T, refs []layout.BlockID, nBlocks int, sched *Schedule) {
	t.Helper()
	n := len(refs)
	for k, op := range sched.Ops {
		need, rel := int(op.NeedIdx), int(op.Release)
		if need < n && refs[need] != op.Fetch {
			t.Fatalf("op %d: NeedIdx %d references %d, fetch is %d", k, need, refs[need], op.Fetch)
		}
		if op.Evict != cache.NoBlock {
			if rel < 1 || rel > n {
				t.Fatalf("op %d: release %d out of range", k, rel)
			}
			// Release is one past a reference to the evicted block.
			if refs[rel-1] != op.Evict {
				t.Fatalf("op %d: release %d does not follow a use of %d", k, rel, op.Evict)
			}
		}
	}
	// Replaying the ops block-by-block (ignoring timing) must serve every
	// reference: simulate with a set.
	// Eviction safety: every eviction of a block precedes that block's
	// next scheduled fetch in op order, and the first use of the block at
	// or after its release is exactly the reference that refetch serves.
	nextUseAfter := func(b layout.BlockID, pos int) int {
		for p := pos; p < len(refs); p++ {
			if refs[p] == b {
				return p
			}
		}
		return future.Never
	}
	nextFetchAfter := func(b layout.BlockID, k int) (int, bool) {
		for j := k + 1; j < len(sched.Ops); j++ {
			if sched.Ops[j].Fetch == b {
				return int(sched.Ops[j].NeedIdx), true
			}
		}
		return future.Never, false
	}
	for k, op := range sched.Ops {
		if op.Evict == cache.NoBlock {
			continue
		}
		refetch, hasRefetch := nextFetchAfter(op.Evict, k)
		u := nextUseAfter(op.Evict, int(op.Release))
		if u != future.Never {
			if !hasRefetch {
				t.Fatalf("op %d: evicted block %d is referenced at %d but never refetched",
					k, op.Evict, u)
			}
			if refetch != u {
				t.Fatalf("op %d: evicted block %d next used at %d but refetch serves %d",
					k, op.Evict, u, refetch)
			}
		}
	}
}

func TestScheduleLegalOnLoop(t *testing.T) {
	var ids []int
	for p := 0; p < 5; p++ {
		for i := 0; i < 12; i++ {
			ids = append(ids, i)
		}
	}
	refs := mkRefs(ids...)
	for _, disks := range []int{1, 2, 3} {
		for _, k := range []int{4, 8, 11} {
			sched, err := BuildSchedule(refs, modDisk(disks), 12, disks, k, 4, 8)
			if err != nil {
				t.Fatalf("d=%d k=%d: %v", disks, k, err)
			}
			checkScheduleLegal(t, refs, 12, sched)
		}
	}
}

func TestScheduleLegalRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nBlocks := 4 + rng.Intn(20)
		n := 20 + rng.Intn(200)
		refs := make([]layout.BlockID, n)
		for i := range refs {
			refs[i] = layout.BlockID(rng.Intn(nBlocks))
		}
		disks := 1 + rng.Intn(4)
		k := 2 + rng.Intn(nBlocks)
		fEst := float64(1 + rng.Intn(16))
		batch := 1 + rng.Intn(8)
		sched, err := BuildSchedule(refs, modDisk(disks), nBlocks, disks, k, fEst, batch)
		if err != nil {
			t.Log(err)
			return false
		}
		checkScheduleLegal(t, refs, nBlocks, sched)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// neverReusedRefs returns n references of which about half go to blocks
// referenced only once, so that many blocks share the next use Never
// and the eviction heaps break ties by push order. The rest cycle over a
// small hot set. It also returns the block ID space.
func neverReusedRefs(rng *rand.Rand, n int) ([]layout.BlockID, int) {
	hot := 8 + rng.Intn(40)
	refs := make([]layout.BlockID, n)
	next := hot
	for i := range refs {
		if rng.Intn(2) == 0 {
			refs[i] = layout.BlockID(next)
			next++
		} else {
			refs[i] = layout.BlockID(rng.Intn(hot))
		}
	}
	return refs, next
}

// TestBuildScheduleMatchesLegacy checks the reverse pass against its
// statement, spec.ReversePass: the same ops, field for field, on random
// traces where Never ties are common and on the bundled traces of the
// benchmark's paper-offline workload. It also checks that some step
// completed flights from different disks' queues into one heap in an
// order that pushing queue by queue would change: a flight occupying a
// higher-numbered disk issued before one occupying a lower-numbered disk.
func TestBuildScheduleMatchesLegacy(t *testing.T) {
	crossQueue := 0
	check := func(name string, refs []layout.BlockID, diskOf func(layout.BlockID) int, nBlocks, disks, capacity int, f float64, batch int) {
		t.Helper()
		testHookDrain = func(due []int32, pairs []Op) {
			last := map[int]int{} // heap → highest occupied disk pushed so far
			for _, i := range due {
				h, d := diskOf(pairs[i].Evict), diskOf(pairs[i].Fetch)
				if d0, ok := last[h]; ok && d < d0 {
					crossQueue++
					return
				}
				last[h] = max(last[h], d)
			}
		}
		defer func() { testHookDrain = nil }()
		got, err := BuildSchedule(refs, diskOf, nBlocks, disks, capacity, f, batch)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := spec.ReversePass(refs, diskOf, nBlocks, disks, capacity, f, batch)
		if len(got.Ops) != len(want) {
			t.Fatalf("%s: %d ops, want %d", name, len(got.Ops), len(want))
		}
		for k, op := range got.Ops {
			if w := want[k]; op.Fetch != w.Fetch || op.Evict != w.Evict || int(op.NeedIdx) != w.NeedIdx || int(op.Release) != w.Release {
				t.Fatalf("%s: op %d is %+v, want %+v", name, k, op, w)
			}
		}
	}

	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		refs, nBlocks := neverReusedRefs(rng, 3000)
		place := rng.Perm(nBlocks)
		capacity := 4 + rng.Intn(60)
		for _, disks := range []int{1, 2, 3, 4, 8, 16} {
			diskOf := func(b layout.BlockID) int { return place[b] % disks }
			for _, f := range []float64{1, 2.5, 4, 32} {
				for _, batch := range []int{1, 4, 80, policy.DefaultBatchSize(disks)} {
					name := fmt.Sprintf("rand%d/F%g-b%d/%dd", seed, f, batch, disks)
					check(name, refs, diskOf, nBlocks, disks, capacity, f, batch)
				}
			}
		}
	}

	for _, name := range []string{"synth", "cscope3", "xds"} {
		tr := tracetest.Bundled(t, name)
		refs := make([]layout.BlockID, len(tr.Refs))
		for i, r := range tr.Refs {
			refs[i] = r.Block
		}
		for _, disks := range []int{1, 4, 16} {
			lay, err := tr.Layout(disks, 0)
			if err != nil {
				t.Fatal(err)
			}
			diskOf := func(b layout.BlockID) int { return lay.Lookup(b).Disk }
			for _, st := range benchSettings {
				batch := st.batch
				if batch == 0 {
					batch = policy.DefaultBatchSize(disks)
				}
				check(fmt.Sprintf("%s/F%g-b%d/%dd", name, st.f, st.batch, disks),
					refs, diskOf, tr.NumBlocks(), disks, tr.CacheBlocks, st.f, batch)
			}
		}
	}
	if crossQueue == 0 {
		t.Fatal("no step completed flights from different disks into one heap out of disk order; the push order is not exercised")
	}
	t.Logf("%d steps completed flights from different disks into one heap out of disk order", crossQueue)
}

// TestOpIsSixteenBytes pins the compact layout of the schedule array.
func TestOpIsSixteenBytes(t *testing.T) {
	if size := unsafe.Sizeof(Op{}); size != 16 {
		t.Fatalf("Op is %d bytes, want 16", size)
	}
}

// loopTrace for engine-level runs.
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

func TestPolicyEndToEnd(t *testing.T) {
	tr := loopTrace(100, 4, 1.5, 64)
	for _, disks := range []int{1, 2, 4} {
		p := New(8, 16)
		r, err := engine.Run(engine.Config{Trace: tr, Policy: p, Disks: disks})
		if err != nil {
			t.Fatalf("d=%d: %v", disks, err)
		}
		if r.CacheHits+r.CacheMisses != int64(len(tr.Refs)) {
			t.Fatalf("d=%d: served %d, want %d", disks, r.CacheHits+r.CacheMisses, len(tr.Refs))
		}
		min := int64(100 + 3*(100-64))
		if r.Fetches < min {
			t.Errorf("d=%d: fetches %d below MIN bound %d", disks, r.Fetches, min)
		}
	}
}

func TestPolicyEndToEndRandomTraces(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nBlocks := 8 + rng.Intn(40)
		n := 50 + rng.Intn(400)
		tr := &trace.Trace{
			Name:        "rand",
			Files:       []layout.File{{First: 0, Blocks: layoutBlocks(nBlocks)}},
			CacheBlocks: 3 + rng.Intn(nBlocks),
		}
		for i := 0; i < n; i++ {
			tr.Refs = append(tr.Refs, trace.Ref{
				Block:     layout.BlockID(rng.Intn(nBlocks)),
				ComputeMs: rng.Float64() * 4,
			})
		}
		p := New(float64(1+rng.Intn(32)), 1+rng.Intn(40))
		r, err := engine.Run(engine.Config{Trace: tr, Policy: p, Disks: 1 + rng.Intn(5)})
		if err != nil {
			t.Log(err)
			return false
		}
		return r.CacheHits+r.CacheMisses == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func layoutBlocks(n int) int { return n }

// TestReplayMatchesLegacy checks the incremental replay against the
// replay restated by spec.Queues and spec.Ready (specReplay): the same
// Result and Stats on random traces and on xds, across array sizes and
// both (F, batch) settings the benchmark uses.
func TestReplayMatchesLegacy(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := tracetest.Random(rng, tracetest.RandomConfig{MaxBlocks: 500, MaxRefs: 4000, RandomPlacement: true})
		// Keep the cache well below the block count so the replay evicts.
		tr.CacheBlocks = 2 + rng.Intn(tr.NumBlocks()/2)
		for _, disks := range []int{1, 2, 4, 16} {
			for _, fb := range []struct {
				f     float64
				batch int
			}{{4, 80}, {32, 0}} {
				name := fmt.Sprintf("rand%d/F%g-b%d/%dd", seed, fb.f, fb.batch, disks)
				compareWithSpec(t, name, tr, disks, fb.f, fb.batch)
			}
		}
	}
}

// TestReplayForcedBeforeRelease covers the case where the engine's stall
// handling force-issues an op before its release time: the release that
// arrives later must not make the op eligible a second time. xds at 4
// disks with F=4, batch 80 issues ops that way.
func TestReplayForcedBeforeRelease(t *testing.T) {
	ref := compareWithSpec(t, "xds/F4-b80/4d", tracetest.Bundled(t, "xds"), 4, 4, 80)
	if ref.earlyForced == 0 {
		t.Fatal("no op was force-issued before its release; the case is not exercised")
	}
}

// compareWithSpec runs Policy and specReplay on one input and reports
// any difference in Result or Stats. It returns the specReplay after
// its run.
func compareWithSpec(t *testing.T, name string, tr *trace.Trace, disks int, f float64, batch int) *specReplay {
	t.Helper()
	ref := &specReplay{Policy: New(f, batch), t: t, name: name}
	want, err := engine.Run(engine.Config{Trace: tr, Policy: ref, Disks: disks})
	if err != nil {
		t.Fatalf("%s spec: %v", name, err)
	}
	p := New(f, batch)
	got, err := engine.Run(engine.Config{Trace: tr, Policy: p, Disks: disks})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: result differs\n got  %+v\n want %+v", name, got, want)
	}
	if p.Stat != ref.Stat {
		t.Errorf("%s: stats %+v, want %+v", name, p.Stat, ref.Stat)
	}
	return ref
}

// specReplay is Policy with its poll restated by spec.Ready over the
// queues spec.Queues lays out, which Attach checks Policy's queue layout
// against. Its OnStall is Policy's, checked to force the stalled block's
// first unissued op in schedule order; earlyForced counts the forced
// ops that were not released yet.
type specReplay struct {
	*Policy
	t    *testing.T
	name string

	sched       []Op    // the schedule in schedule order
	slot        []int32 // schedule index → queue position
	earlyForced int
}

func (r *specReplay) Attach(s *engine.State) {
	r.Policy.Attach(s)
	f := r.FetchEstimate
	if f <= 0 {
		f = 32
	}
	sched, err := BuildSchedule(s.Refs, s.DiskOf, s.Layout.NumBlocks(), len(s.Drives), s.Cache.Capacity(), f, r.batch)
	if err != nil {
		r.t.Fatalf("%s: %v", r.name, err)
	}
	r.sched = sched.Ops
	ops := make([]spec.Op, len(r.sched))
	for k, op := range r.sched {
		ops[k] = spec.Op{Fetch: op.Fetch, Evict: op.Evict, NeedIdx: int(op.NeedIdx), Release: int(op.Release)}
	}
	r.slot = make([]int32, len(ops))
	g := int32(0)
	for d, q := range spec.Queues(ops, len(s.Drives), s.DiskOf) {
		for _, k := range q {
			if r.ops[g] != r.sched[k] {
				r.t.Fatalf("%s: queue position %d holds %+v, want schedule op %d %+v", r.name, g, r.ops[g], k, r.sched[k])
			}
			r.slot[k] = g
			g++
		}
		if r.diskEnd[d] != g {
			r.t.Fatalf("%s: disk %d queue ends at %d, want %d", r.name, d, r.diskEnd[d], g)
		}
	}
}

func (r *specReplay) Poll() {
	s := r.s
	for d := range s.Drives {
		if !s.DriveFree(d) {
			continue
		}
		start := int32(0)
		if d > 0 {
			start = r.diskEnd[d-1]
		}
		issued := func(i int) bool { return r.isIssued(start + int32(i)) }
		released := func(i int) bool {
			op := r.ops[start+int32(i)]
			return op.Evict == cache.NoBlock || int(op.Release) <= s.Cursor()
		}
		budget := r.batch
		for _, i := range spec.Ready(int(r.diskEnd[d]-start), scanWindow, issued, released) {
			if budget == 0 {
				break
			}
			if r.issueOp(start + int32(i)) {
				budget--
			}
		}
	}
}

func (r *specReplay) OnStall(b layout.BlockID) {
	s := r.s
	want := int32(-1)
	for k, op := range r.sched {
		if op.Fetch == b && !r.isIssued(r.slot[k]) {
			want = r.slot[k]
			break
		}
	}
	fetches, adHoc := s.Fetches(), r.Stat.AdHocIssues
	r.Policy.OnStall(b)
	switch {
	case want < 0 && r.Stat.AdHocIssues == adHoc:
		r.t.Errorf("%s: block %d has no unissued op, but OnStall did not fall back", r.name, b)
	case want >= 0 && s.Fetches() > fetches && !r.isIssued(want):
		r.t.Errorf("%s: OnStall(%d) did not force its first unissued op, at queue position %d", r.name, b, want)
	case want >= 0 && s.Fetches() > fetches:
		if op := r.ops[want]; op.Evict != cache.NoBlock && int(op.Release) > s.Cursor() {
			r.earlyForced++
		}
	}
}

// stallTally wraps Policy and counts the OnStall calls that issued a
// scheduled op: a fetch started and AdHocIssues did not move.
type stallTally struct {
	*Policy
	calls, scheduled int
}

func (c *stallTally) OnStall(b layout.BlockID) {
	fetches, adHoc := c.s.Fetches(), c.Stat.AdHocIssues
	c.Policy.OnStall(b)
	c.calls++
	if c.s.Fetches() > fetches && c.Stat.AdHocIssues == adHoc {
		c.scheduled++
	}
}

// TestForcedIssuesCountsOnlyScheduledIssues checks that Stat.ForcedIssues
// counts only OnStall calls that issued a scheduled op: not a call that
// finds every buffer in flight and issues nothing, and not an ad-hoc
// demand fetch, which AdHocIssues counts.
func TestForcedIssuesCountsOnlyScheduledIssues(t *testing.T) {
	t.Run("every buffer in flight", func(t *testing.T) {
		// The first poll fills the 4-block cache with in-flight fetches
		// of the initial working set, so a forced issue has no victim.
		p := &firstPollStall{Policy: New(8, 80)}
		if _, err := engine.Run(engine.Config{Trace: loopTrace(20, 3, 1.5, 4), Policy: p, Disks: 1}); err != nil {
			t.Fatal(err)
		}
		if !p.probed {
			t.Fatal("no absent scheduled block to stall on after the first poll")
		}
		if p.fetched {
			t.Fatal("OnStall issued a fetch with every buffer in flight")
		}
		if p.forcedAfter != 0 {
			t.Errorf("ForcedIssues = %d after an OnStall that issued nothing", p.forcedAfter)
		}
	})
	t.Run("ad-hoc fallbacks", func(t *testing.T) {
		// A 7-block cache on 4 disks makes the replay fall back to
		// demand fetches for blocks with no scheduled op left.
		c := &stallTally{Policy: New(4, 80)}
		tr := tracetest.Random(rand.New(rand.NewSource(1)), tracetest.RandomConfig{MaxBlocks: 60, MaxRefs: 800})
		tr.CacheBlocks = 7
		if _, err := engine.Run(engine.Config{Trace: tr, Policy: c, Disks: 4}); err != nil {
			t.Fatal(err)
		}
		if c.Stat.AdHocIssues == 0 {
			t.Fatal("no ad-hoc fallback; the case is not exercised")
		}
		if c.Stat.ForcedIssues != c.scheduled {
			t.Errorf("ForcedIssues = %d, want %d (OnStall calls %d, ad hoc %d)",
				c.Stat.ForcedIssues, c.scheduled, c.calls, c.Stat.AdHocIssues)
		}
	})
}

// firstPollStall calls OnStall once, after the first poll that leaves no
// free buffer, for the first absent block of the trace.
type firstPollStall struct {
	*Policy
	probed, fetched bool
	forcedAfter     int
}

func (f *firstPollStall) Poll() {
	f.Policy.Poll()
	if f.probed {
		return
	}
	s := f.s
	if s.Cache.FreeBuffers() != 0 {
		return
	}
	for _, b := range s.Refs {
		if s.Cache.Absent(b) {
			f.probed = true
			fetches := s.Fetches()
			f.Policy.OnStall(b)
			f.fetched = s.Fetches() != fetches
			f.forcedAfter = f.Stat.ForcedIssues
			return
		}
	}
}

// TestScheduleLegalOnBundledTraces checks the structural invariants on
// slices of the real workloads, where access patterns are far less
// uniform than the random traces.
func TestScheduleLegalOnBundledTraces(t *testing.T) {
	for _, spec := range []struct {
		name  string
		k     int
		disks int
	}{
		{"glimpse", 400, 3},
		{"postgres-select", 300, 2},
		{"xds", 500, 4},
		{"cscope3", 600, 1},
	} {
		tr, err := trace.ByName(spec.name)
		if err != nil {
			t.Fatal(err)
		}
		tr = tr.Truncate(3000)
		lay, err := tr.Layout(spec.disks, 0)
		if err != nil {
			t.Fatal(err)
		}
		refs := make([]layout.BlockID, len(tr.Refs))
		for i, r := range tr.Refs {
			refs[i] = r.Block
		}
		sched, err := BuildSchedule(refs, func(b layout.BlockID) int { return lay.Lookup(b).Disk },
			tr.NumBlocks(), spec.disks, spec.k, 8, 16)
		if err != nil {
			t.Fatalf("%s: %v", spec.name, err)
		}
		checkScheduleLegal(t, refs, tr.NumBlocks(), sched)
		if t.Failed() {
			t.Fatalf("%s: schedule illegal", spec.name)
		}
	}
}

func TestRevAggCloseToBestOnSynth(t *testing.T) {
	tr, err := trace.ByName("synth")
	if err != nil {
		t.Fatal(err)
	}
	tr = tr.Truncate(20000)
	for _, disks := range []int{1, 3} {
		fh, _ := engine.Run(engine.Config{Trace: tr, Policy: fhPolicy(), Disks: disks})
		ag, _ := engine.Run(engine.Config{Trace: tr, Policy: agPolicy(), Disks: disks})
		best := fh.ElapsedSec
		if ag.ElapsedSec < best {
			best = ag.ElapsedSec
		}
		// Best-of-grid reverse aggressive should be within 20% of the
		// better of the two online algorithms (the paper: within ~10%).
		var bestRA float64
		for _, f := range []float64{2, 3, 4, 16, 64} {
			for _, b := range []int{8, 40, 80} {
				r, err := engine.Run(engine.Config{Trace: tr, Policy: New(f, b), Disks: disks})
				if err != nil {
					t.Fatal(err)
				}
				if bestRA == 0 || r.ElapsedSec < bestRA {
					bestRA = r.ElapsedSec
				}
			}
		}
		if bestRA > best*1.2 {
			t.Errorf("d=%d: reverse aggressive %g, best online %g", disks, bestRA, best)
		}
	}
}

// Minimal local copies of the online policies to avoid a dependency on
// package policy (which would be circular only in spirit, but keep the
// test self-contained).
type simpleFH struct {
	s       *engine.State
	scanned int
}

func fhPolicy() engine.Policy { return &simpleFH{} }

func (f *simpleFH) Name() string           { return "test-fh" }
func (f *simpleFH) Attach(s *engine.State) { f.s = s }
func (f *simpleFH) Poll() {
	s := f.s
	c := s.Cursor()
	limit := c + 62
	if n := s.Len(); limit > n {
		limit = n
	}
	if f.scanned < c {
		f.scanned = c
	}
	for ; f.scanned < limit; f.scanned++ {
		b := s.Refs[f.scanned]
		if !s.Cache.Absent(b) {
			continue
		}
		if s.Cache.FreeBuffers() > 0 {
			s.Issue(b, cache.NoBlock)
			continue
		}
		v, use := s.Cache.FurthestEvictable()
		if v == cache.NoBlock || use <= c+62 {
			continue
		}
		s.Issue(b, v)
	}
}
func (f *simpleFH) OnStall(b layout.BlockID) {
	if f.s.Cache.FreeBuffers() > 0 {
		f.s.Issue(b, cache.NoBlock)
		return
	}
	v, _ := f.s.Cache.FurthestEvictable()
	f.s.Issue(b, v)
}

type simpleAg struct{ simpleFH }

func agPolicy() engine.Policy { return &simpleAg{} }

func (a *simpleAg) Name() string           { return "test-ag" }
func (a *simpleAg) Attach(s *engine.State) { a.s = s }
func (a *simpleAg) Poll() {
	s := a.s
	for _, dr := range s.Drives {
		if dr.Outstanding() != 0 {
			return
		}
	}
	// Single batch across the array: fetch the next few missing blocks.
	c := s.Cursor()
	issued := 0
	for p := c; p < s.Len() && issued < 40; p++ {
		b := s.Refs[p]
		if !s.Cache.Absent(b) {
			continue
		}
		if s.Cache.FreeBuffers() > 0 {
			s.Issue(b, cache.NoBlock)
			issued++
			continue
		}
		v, use := s.Cache.FurthestEvictable()
		if v == cache.NoBlock || use <= p {
			break
		}
		s.Issue(b, v)
		issued++
	}
}

// refHeap is evictHeap's ordering behind container/heap, the reference
// for TestEvictHeapMatchesContainerHeap.
type refHeap []evEntry

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].next > h[j].next }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(evEntry)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// TestEvictHeapMatchesContainerHeap checks that the typed push and pop
// leave the array exactly as container/heap would, with many equal keys
// so that tie-breaking is exercised.
func TestEvictHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var got evictHeap
	var want refHeap
	for i := 0; i < 5000; i++ {
		if len(got) > 0 && rng.Intn(3) == 0 {
			got.pop()
			heap.Pop(&want)
		} else {
			e := evEntry{block: layout.BlockID(i), next: int32(rng.Intn(8))}
			if rng.Intn(4) == 0 {
				e.next = future.Never
			}
			got.push(e)
			heap.Push(&want, e)
		}
		if !slices.Equal(got, evictHeap(want)) {
			t.Fatalf("step %d: heaps differ\n got  %v\n want %v", i, got, want)
		}
	}
}
