package policy

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"ppcsim/internal/engine"
	"ppcsim/internal/trace"
	"ppcsim/internal/trace/tracetest"
)

// mkForestallEst returns a Forestall with only its F'-estimation state
// initialized (what Attach would build for d disks), so the estimator can
// be driven directly.
func mkForestallEst(d int) *Forestall {
	f := &Forestall{}
	f.diskHist = make([][]float64, d)
	for i := range f.diskHist {
		f.diskHist[i] = make([]float64, historyLen)
	}
	f.diskSum = make([]float64, d)
	f.diskPos = make([]int, d)
	f.diskN = make([]int, d)
	f.cpuHist = make([]float64, historyLen)
	return f
}

// addCPU folds one compute-time sample into the history ring, mirroring
// sampleCPU's bookkeeping without needing an attached engine.
func (f *Forestall) addCPU(v float64) {
	f.cpuSum += v - f.cpuHist[f.cpuPos]
	f.cpuHist[f.cpuPos] = v
	f.cpuPos = (f.cpuPos + 1) % historyLen
	if f.cpuN < historyLen {
		f.cpuN++
	}
}

// TestForestallFPrimeWarmup pins the estimator's warm-up behavior: before
// any disk access completes F' is the defaultF seed, and the first real
// estimates average over the samples actually observed — not over the
// full (zero-initialized) history window, which would bias early F' by
// samples/historyLen.
func TestForestallFPrimeWarmup(t *testing.T) {
	f := mkForestallEst(2)
	if got := f.fprime(0); got != defaultF {
		t.Errorf("F' with no samples = %g, want defaultF %g", got, defaultF)
	}
	f.addCPU(2.0)
	if got := f.fprime(0); got != defaultF {
		t.Errorf("F' with no disk samples = %g, want defaultF %g", got, defaultF)
	}

	// First estimate: one 10ms access over a 2ms mean compute time. The
	// disk is slow (>= slowDiskMs) so the 4x overestimate applies:
	// F' = (10/1)/(2/1) * 4 = 20. A zero-biased window would instead give
	// (10/100)/(2/100)*... with meanDisk = 0.1 < slowDiskMs, F' = 0.05 -> 1.
	f.onComplete(0, 10.0)
	if got, want := f.fprime(0), 20.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("first F' estimate = %g, want %g", got, want)
	}

	// Fast-disk branch: 2ms accesses on disk 1 skip the overestimate.
	f.onComplete(1, 2.0)
	f.onComplete(1, 4.0)
	if got, want := f.fprime(1), 1.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("fast-disk F' = %g, want %g", got, want)
	}

	// Per-disk isolation: disk 0's estimate is untouched by disk 1.
	if got, want := f.fprime(0), 20.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("disk 0 F' after disk 1 samples = %g, want %g", got, want)
	}

	// Floor: a disk much faster than compute clamps to F' = 1.
	g := mkForestallEst(1)
	g.addCPU(10.0)
	g.onComplete(0, 1.0)
	if got := g.fprime(0); got != 1.0 {
		t.Errorf("floored F' = %g, want 1", got)
	}

	// FixedF bypasses estimation entirely.
	f.FixedF = 7.5
	if got := f.fprime(0); got != 7.5 {
		t.Errorf("FixedF override = %g, want 7.5", got)
	}
}

// TestForestallFPrimeRingWraparound checks the sliding window: after more
// than historyLen samples the oldest are evicted from the running sum.
func TestForestallFPrimeRingWraparound(t *testing.T) {
	f := mkForestallEst(1)
	f.addCPU(1.0)
	// historyLen samples of 8ms, then historyLen more of 16ms: the window
	// must hold only the 16ms samples.
	for i := 0; i < historyLen; i++ {
		f.onComplete(0, 8.0)
	}
	for i := 0; i < historyLen; i++ {
		f.onComplete(0, 16.0)
	}
	// meanDisk = 16 >= slowDiskMs: F' = 16/1 * 4 = 64.
	if got, want := f.fprime(0), 64.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("post-wraparound F' = %g, want %g", got, want)
	}
}

// allocProbe wraps a Forestall and, past a warm-up of polls, either
// counts the heap allocations made inside every later Poll or, every
// 1000 polls, forces a recheck of every disk and measures such polls
// with testing.AllocsPerRun. The forced polls change the run, so the two
// probes never share one.
//
// A poll that raises an outstanding-request high-water mark, per drive
// or in total, is left out of the count: the engine then grows that
// drive's queue or its request pool, which is amortized and not the
// policy's doing.
type allocProbe struct {
	*Forestall
	warm, polls int
	force       bool
	highWater   []int
	mallocs     uint64
	measured    int
	checkpoints int
	forcedMax   float64
}

func (a *allocProbe) Poll() {
	if a.polls++; a.polls <= a.warm {
		a.Forestall.Poll()
		a.raisedHighWater()
		return
	}
	if !a.force {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		a.Forestall.Poll()
		runtime.ReadMemStats(&after)
		if !a.raisedHighWater() {
			a.mallocs += after.Mallocs - before.Mallocs
			a.measured++
		}
		return
	}
	a.Forestall.Poll()
	a.raisedHighWater()
	if a.polls%1000 == 0 {
		a.checkpoints++
		n := testing.AllocsPerRun(5, func() {
			for d := range a.nextCheck {
				a.nextCheck[d] = 0
			}
			a.Forestall.Poll()
		})
		a.forcedMax = math.Max(a.forcedMax, n)
	}
}

// raisedHighWater records the outstanding requests per drive and in
// total, and reports whether either count is higher than ever before.
func (a *allocProbe) raisedHighWater() bool {
	if a.highWater == nil {
		a.highWater = make([]int, len(a.s.Drives)+1)
	}
	raised, total := false, 0
	note := func(i, n int) {
		if n > a.highWater[i] {
			a.highWater[i], raised = n, true
		}
	}
	for d, dr := range a.s.Drives {
		note(d, dr.Outstanding())
		total += dr.Outstanding()
	}
	note(len(a.s.Drives), total)
	return raised
}

// TestForestallSteadyStatePollsAllocateNothing runs forestall on synth
// and checks that once the first half of the run has grown the per-disk
// missing lists, no poll allocates: neither the run's own polls nor
// polls that force every disk's forecast to be recomputed.
//
// The runtime is kept out of the count. With one processor,
// ReadMemStats's restart of the world finds no idle processor to wake,
// so it never starts a new thread (5 allocations, seen in a measured
// poll when this test runs alone); with the collector off, no
// collection starts its worker goroutines inside a poll either.
func TestForestallSteadyStatePollsAllocateNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	tr := tracetest.Truncated(t, "synth", 12000)
	for _, disks := range []int{1, 4, 16} {
		for _, force := range []bool{false, true} {
			p := &allocProbe{Forestall: NewForestall(), warm: len(tr.Refs) / 2, force: force}
			if _, err := engine.Run(engine.Config{Trace: tr, Policy: p, Disks: disks}); err != nil {
				t.Fatal(err)
			}
			if (!force && p.measured < p.warm/2) || (force && p.checkpoints == 0) {
				t.Fatalf("%dd: %d polls measured, %d checkpoints: too few", disks, p.measured, p.checkpoints)
			}
			if p.mallocs != 0 {
				t.Errorf("%dd: %d allocations in %d polls, want 0", disks, p.mallocs, p.measured)
			}
			if p.forcedMax != 0 {
				t.Errorf("%dd: a forced recheck poll allocated %g times, want 0", disks, p.forcedMax)
			}
		}
	}
}

// TestForestallForecastStopsEarly gates the forecast's work. A forecast
// that cannot trigger stops walking its disk's missing list once no later
// entry can trigger or shorten the recheck wait, so over the ten paper
// traces at 4, 8 and 16 disks the entries examined, summed over the
// traces, are at most half of the entries listed when each forecast
// started. The multiple was fixed before measuring. Deleting the stop
// leaves every Result unchanged, so the differential tests cannot see it;
// this count can.
func TestForestallForecastStopsEarly(t *testing.T) {
	for _, disks := range []int{4, 8, 16} {
		var examined, listed int64
		for _, name := range trace.Names {
			f := NewForestall()
			if _, err := engine.Run(engine.Config{Trace: tracetest.Bundled(t, name), Policy: f, Disks: disks}); err != nil {
				t.Fatalf("%s/%dd: %v", name, disks, err)
			}
			examined += f.examined
			listed += f.listed
		}
		t.Logf("%dd: %d entries examined of %d listed (%.3f)", disks, examined, listed, float64(examined)/float64(listed))
		if listed == 0 {
			t.Fatalf("%dd: no forecast listed an entry", disks)
		}
		if 2*examined > listed {
			t.Errorf("%dd: forecasts examined %d entries of %d listed, want at most half", disks, examined, listed)
		}
	}
}
