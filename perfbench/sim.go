package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"ppcsim"
)

// setupReps is how many times a run at least sets its workload up;
// setup_s is the median. Set-ups that take milliseconds repeat until a
// second is spent, up to maxSetupReps, so their median settles.
const (
	setupReps    = 5
	maxSetupReps = 100
)

// timeSetups runs setUp setupReps times or more, collecting the heap
// before each so one set-up's garbage does not slow the next, and returns
// each run's seconds at the reference speed (see speed.go) and as
// measured. tearDown undoes the previous set-up, untimed.
func timeSetups(setUp func() error, tearDown func(), pr *probe) (secs, raw []float64, err error) {
	total := 0.0
	for len(secs) < setupReps || (total < 1 && len(secs) < maxSetupReps) {
		if len(secs) > 0 {
			tearDown()
		}
		runtime.GC()
		before := pr.measure(0)
		start := time.Now()
		if err := setUp(); err != nil {
			return nil, nil, err
		}
		d := time.Since(start)
		secs = append(secs, d.Seconds()*toRef(before, pr.after(d)))
		raw = append(raw, d.Seconds())
		total += raw[len(raw)-1]
	}
	return secs, raw, nil
}

// cell is one simulation a pass runs: a single-process run (opts) or a
// multi-process one (multi).
type cell struct {
	label  string
	family string // the label without the disk count
	disks  int
	refs   int64
	opts   ppcsim.Options
	multi  *ppcsim.MultiConfig
}

func newCell(opts ppcsim.Options, family string, refs int64) cell {
	return cell{
		label:  fmt.Sprintf("%s/%dd", family, opts.Disks),
		family: family,
		disks:  opts.Disks,
		refs:   refs,
		opts:   opts,
	}
}

// alg names the cell's algorithm, or "multi" for a multi-process cell.
func (c cell) alg() string {
	if c.multi != nil {
		return "multi"
	}
	return string(c.opts.Algorithm)
}

// simInputs is what a sim workload's set-up produces.
type simInputs struct {
	cells   []cell
	cleanup func()
}

// simSetup builds a workload's inputs from its seed; it is what setup_s
// times.
type simSetup func(seed int64, tiny bool) (*simInputs, error)

var onlineAlgs = []ppcsim.Algorithm{ppcsim.Demand, ppcsim.FixedHorizon, ppcsim.Aggressive, ppcsim.Forestall}

// setupPaperOnline: the paper's online comparison, every bundled Table 3
// trace at full length, fully hinted, at the paper's defaults.
func setupPaperOnline(seed int64, tiny bool) (*simInputs, error) {
	names, disks := ppcsim.TraceNames, []int{1, 2, 4, 8, 16}
	if tiny {
		names, disks = []string{"ld", "postgres-select"}, []int{1, 4}
	}
	in := &simInputs{cleanup: func() {}}
	for _, name := range names {
		tr, err := ppcsim.NewTrace(name)
		if err != nil {
			return nil, err
		}
		for _, alg := range onlineAlgs {
			for _, d := range disks {
				opts := ppcsim.Options{Trace: tr, Algorithm: alg, Disks: d, PlacementSeed: seed}
				in.cells = append(in.cells, newCell(opts, name+"/"+string(alg), int64(len(tr.Refs))))
			}
		}
	}
	return in, nil
}

// setupPaperOffline: reverse aggressive, which dominates the paper
// reproduction, at two (F, batch) settings.
func setupPaperOffline(seed int64, tiny bool) (*simInputs, error) {
	names, disks := []string{"synth", "cscope3", "xds"}, []int{1, 4, 16}
	if tiny {
		names, disks = []string{"xds"}, []int{1, 4}
	}
	in := &simInputs{cleanup: func() {}}
	for _, name := range names {
		tr, err := ppcsim.NewTrace(name)
		if err != nil {
			return nil, err
		}
		for _, fb := range []struct {
			f float64
			b int // 0: the paper's Table 6 batch
		}{{4, 80}, {32, 0}} {
			for _, d := range disks {
				opts := ppcsim.Options{Trace: tr, Algorithm: ppcsim.ReverseAggressive, Disks: d,
					FetchEstimate: fb.f, BatchSize: fb.b, PlacementSeed: seed}
				family := fmt.Sprintf("%s/%s/F%g-b%d", name, ppcsim.ReverseAggressive, fb.f, fb.b)
				in.cells = append(in.cells, newCell(opts, family, int64(len(tr.Refs))))
			}
		}
	}
	return in, nil
}

// setupStreamWindow writes a zipf trace to a columnar file once and
// streams it back through a 1000-reference lookahead window.
func setupStreamWindow(seed int64, tiny bool) (*simInputs, error) {
	spec := ppcsim.LargeTraceSpec{Refs: 500_000, Blocks: 65536, Pattern: "zipf", Seed: seed}
	if tiny {
		spec.Refs, spec.Blocks = 20_000, 4096
	}
	dir, err := os.MkdirTemp("", "perfbench-stream-*")
	if err != nil {
		return nil, err
	}
	f, err := writeColumnar(filepath.Join(dir, "zipf.col"), spec)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	in := &simInputs{cleanup: func() {
		f.Close()
		os.RemoveAll(dir)
	}}
	for _, alg := range onlineAlgs {
		for _, d := range []int{1, 4, 16} {
			opts := ppcsim.Options{Source: f, Algorithm: alg, Disks: d, PlacementSeed: seed,
				Hints: &ppcsim.HintSpec{Fraction: 1, Accuracy: 1, Seed: seed, Window: 1000}}
			in.cells = append(in.cells, newCell(opts, f.Meta().Name+"/"+string(alg), spec.Refs))
		}
	}
	return in, nil
}

func writeColumnar(path string, spec ppcsim.LargeTraceSpec) (*ppcsim.ColumnarTraceFile, error) {
	src, err := spec.Source()
	if err != nil {
		return nil, err
	}
	w, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if _, err := ppcsim.WriteColumnarTrace(w, src); err != nil {
		w.Close()
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return ppcsim.OpenColumnarTrace(path)
}

// setupMixedKnowledge covers the paths only partial knowledge reaches:
// the hint-less LRU-keyed policies, noisy windowed hints with write-behind
// traffic (the phantom block), and the multi-process event loop.
func setupMixedKnowledge(seed int64, tiny bool) (*simInputs, error) {
	in := &simInputs{cleanup: func() {}}
	names, iters, hogPasses, victimRefs := []string{"synth", "glimpse"}, 10_000, 24, 12_000
	if tiny {
		names, iters, hogPasses, victimRefs = []string{"ld"}, 500, 1, 300
	}
	for _, name := range names {
		tr, err := ppcsim.NewTrace(name)
		if err != nil {
			return nil, err
		}
		for _, alg := range []ppcsim.Algorithm{ppcsim.DemandLRU, ppcsim.Readahead, ppcsim.History} {
			for _, d := range []int{1, 4} {
				opts := ppcsim.Options{Trace: tr, Algorithm: alg, Disks: d, PlacementSeed: seed}
				in.cells = append(in.cells, newCell(opts, name+"/"+string(alg), int64(len(tr.Refs))))
			}
		}
	}

	// A quarter of this trace's references are write-behind updates.
	b := ppcsim.NewTraceBuilder("mixed-rw").Seed(seed).CacheBlocks(512)
	idx, data, logf := b.AddFile(256), b.AddFile(8192), b.AddFile(2048)
	b.ComputeExp(1.0)
	for i := 0; i < iters; i++ {
		b.Sequential(idx, i%256, 1).Zipf(data, 2, 1.2).WriteSequential(logf, i%2048, 1)
	}
	rw, err := b.Build()
	if err != nil {
		return nil, err
	}
	hints := &ppcsim.HintSpec{Fraction: 0.7, Accuracy: 0.9, Seed: seed, Window: 64}
	for _, alg := range []ppcsim.Algorithm{ppcsim.FixedHorizon, ppcsim.Aggressive, ppcsim.Forestall} {
		for _, d := range []int{2, 8} {
			opts := ppcsim.Options{Trace: rw, Algorithm: alg, Disks: d, PlacementSeed: seed, Hints: hints}
			in.cells = append(in.cells, newCell(opts, rw.Name+"/"+string(alg), int64(len(rw.Refs))))
		}
	}

	// A hinted forestall process beside an unhinted neighbour.
	hb := ppcsim.NewTraceBuilder("hog").Seed(seed)
	hb.ComputeExp(1.0).Loop(hb.AddFile(1500), hogPasses)
	hog, err := hb.Build()
	if err != nil {
		return nil, err
	}
	vb := ppcsim.NewTraceBuilder("victim").Seed(seed + 1)
	vb.ComputeExp(3.0).Zipf(vb.AddFile(800), victimRefs, 1.4)
	victim, err := vb.Build()
	if err != nil {
		return nil, err
	}
	in.cells = append(in.cells, cell{
		label: "multi/hog-forestall+victim/2d", family: "multi/hog-forestall+victim", disks: 2,
		refs: int64(len(hog.Refs) + len(victim.Refs)),
		multi: &ppcsim.MultiConfig{
			Processes: []ppcsim.ProcessSpec{
				{Trace: hog, Algorithm: ppcsim.MultiForestall, Hinted: true},
				{Trace: victim},
			},
			Disks: 2, CacheBlocks: 1024, PlacementSeed: seed,
		},
	})
	return in, nil
}

// simCounts are the model-level totals of a set of cells: exact numbers
// a speed-only change leaves unchanged.
type simCounts struct {
	refs, hits, misses, fetches int64
	stallSec, elapsedSec        float64
}

func (c *simCounts) add(o simCounts) {
	c.refs += o.refs
	c.hits += o.hits
	c.misses += o.misses
	c.fetches += o.fetches
	c.stallSec += o.stallSec
	c.elapsedSec += o.elapsedSec
}

func (c *simCounts) addResult(r ppcsim.Result, refs int64) {
	c.add(simCounts{refs, r.CacheHits, r.CacheMisses, r.Fetches, r.StallTimeSec, r.ElapsedSec})
}

// checkResult asserts the accounting identities every Result obeys.
func checkResult(r ppcsim.Result, refs int64, disks int) error {
	switch {
	case r.CacheHits+r.CacheMisses+r.WriteRequests != refs:
		return fmt.Errorf("%s/%s/%dd: hits %d + misses %d + writes %d != %d refs",
			r.Trace, r.Policy, disks, r.CacheHits, r.CacheMisses, r.WriteRequests, refs)
	case r.CacheMisses > r.Fetches:
		return fmt.Errorf("%s/%s/%dd: %d misses but only %d fetches", r.Trace, r.Policy, disks, r.CacheMisses, r.Fetches)
	case r.StallTimeSec < 0 || r.ElapsedSec+1e-9 < r.ComputeSec:
		return fmt.Errorf("%s/%s/%dd: elapsed %g s < compute %g s or negative stall", r.Trace, r.Policy, disks, r.ElapsedSec, r.ComputeSec)
	case len(r.PerDisk) != disks:
		return fmt.Errorf("%s/%s/%dd: %d per-disk rows", r.Trace, r.Policy, disks, len(r.PerDisk))
	}
	return nil
}

// cellRun is one cell's outcome within a pass.
type cellRun struct {
	ns       int64
	scaledNs float64 // ns at the reference speed; ns when the pass ran no probe
	fetches  int64
	digest   [sha256.Size]byte
	layers   layerTimes
}

// runCell simulates c once; with t set it runs the traced path. The
// returned digest is the SHA-256 of the Result's JSON.
func runCell(c cell, t *layerTimes, counts *simCounts) (cellRun, error) {
	var (
		out  cellRun
		body []byte
		err  error
	)
	if c.multi != nil {
		start := time.Now()
		res, rerr := ppcsim.RunMulti(*c.multi)
		out.ns = int64(time.Since(start))
		if rerr != nil {
			return out, fmt.Errorf("%s: %w", c.label, rerr)
		}
		for i, p := range res.Processes {
			n := int64(len(c.multi.Processes[i].Trace.Refs))
			if p.CacheHits+p.CacheMisses != n {
				return out, fmt.Errorf("%s: process %s hits %d + misses %d != %d refs", c.label, p.Name, p.CacheHits, p.CacheMisses, n)
			}
			counts.add(simCounts{n, p.CacheHits, p.CacheMisses, p.Fetches, p.StallTimeSec, p.ElapsedSec})
			out.fetches += p.Fetches
		}
		body, err = json.Marshal(res)
	} else {
		var res ppcsim.Result
		start := time.Now()
		if t != nil {
			res, err = runTraced(nil, c.opts, t)
		} else {
			res, err = ppcsim.Run(c.opts)
		}
		out.ns = int64(time.Since(start))
		if err != nil {
			return out, fmt.Errorf("%s: %w", c.label, err)
		}
		if err := checkResult(res, c.refs, c.disks); err != nil {
			return out, err
		}
		counts.addResult(res, c.refs)
		out.fetches = res.Fetches
		body, err = json.Marshal(res)
	}
	if err != nil {
		return out, err
	}
	out.digest = sha256.Sum256(body)
	return out, nil
}

// pass is one run over every cell of a workload.
type pass struct {
	cells      []cellRun
	ns         int64   // simulation time: the cells' sum
	scaledNs   float64 // the same at the reference speed
	probeNs    float64 // the probe's mean ns per unit over the pass
	refs       int64
	allocBytes uint64
	digest     string // SHA-256 over the cells' digests, in cell order
	counts     simCounts
}

// runPass runs every cell once, on this goroutine; with tc set it runs
// the traced path and corrects the layer times by tc. With pr set it
// probes the host's speed before the first cell and after each, and
// scales each cell's time by the probes on either side. Failures go to
// rep.
//
// Each cell starts from a collected heap, untimed, so it neither pays for
// the garbage of the cells before it nor adds its own live set to theirs:
// a cell's time and the workload's peak RSS then depend on the cell, not
// on where the collections fell. Without it, paper-online's peak RSS was
// 30 MB against 22.
func runPass(cells []cell, tc *timerCost, pr *probe, rep *workloadReport, spans *spanLog, parent int64) pass {
	var p pass
	var before, after runtime.MemStats
	var speed float64
	if pr != nil {
		speed = pr.measure(0)
	}
	probeSum := speed
	runtime.ReadMemStats(&before)
	h := sha256.New()
	for _, c := range cells {
		runtime.GC()
		var t *layerTimes
		if tc != nil && c.multi == nil {
			t = &layerTimes{}
		}
		id := spans.newID()
		start := time.Now()
		cr, err := runCell(c, t, &p.counts)
		spans.add(id, parent, c.label, "sim", start, time.Now())
		rep.check(err)
		if t != nil {
			t.correct(*tc)
			cr.layers = *t
		}
		cr.scaledNs = float64(cr.ns)
		if pr != nil {
			next := pr.after(time.Duration(cr.ns))
			cr.scaledNs = float64(cr.ns) * toRef(speed, next)
			speed = next
			probeSum += speed
		}
		p.cells = append(p.cells, cr)
		p.ns += cr.ns
		p.scaledNs += cr.scaledNs
		p.refs += c.refs
		h.Write(cr.digest[:])
	}
	runtime.ReadMemStats(&after)
	p.probeNs = probeSum / float64(len(cells)+1)
	p.allocBytes = after.TotalAlloc - before.TotalAlloc
	p.digest = hex.EncodeToString(h.Sum(nil))
	return p
}

// rates sums a pass's host time and references by algorithm.
func (p pass) rates(cells []cell) algRates {
	a := algRates{}
	for i, cr := range p.cells {
		a.add(cells[i].alg(), cr.ns, cells[i].refs)
	}
	return a
}

// runSim runs a simulation workload: set-up (timed several times), then
// untraced passes until the measuring time is spent, or one untraced and
// one traced pass.
func runSim(name string, setup simSetup, o runOpts) *workloadReport {
	rep := newReport(name, o)
	pr := newProbe()
	var in *simInputs
	setupS, setupRaw, err := timeSetups(func() error {
		var err error
		in, err = setup(o.seed, o.tiny)
		return err
	}, func() {
		in.cleanup()
		in = nil // unreachable before the next set-up, so peak RSS holds one copy
	}, pr)
	if err != nil {
		rep.check(fmt.Errorf("set-up: %w", err))
		return rep
	}
	defer in.cleanup()

	root := o.spans.newID()
	started := time.Now()
	defer func() { o.spans.add(root, 0, name, "sim", started, time.Now()) }()
	runOne := func(tc *timerCost, pr *probe) pass {
		id, start := o.spans.newID(), time.Now()
		p := runPass(in.cells, tc, pr, rep, o.spans, id)
		o.spans.add(id, root, "pass", "sim", start, time.Now())
		return p
	}

	if o.traced {
		// The layer metrics are shares and ratios of one pass's own
		// times, so the traced passes run without the probe.
		tc := measureTimerCost()
		u := runOne(nil, nil)
		t := runOne(&tc, nil)
		if t.digest != u.digest {
			rep.fail(fmt.Errorf("traced digest %s differs from untraced %s", t.digest, u.digest))
		}
		rep.finishDigest(u.digest)
		setLayerMetrics(rep, in.cells, u, t)
		return rep
	}

	var passes []pass
	for {
		p := runOne(nil, pr)
		passes = append(passes, p)
		spent := time.Since(started).Seconds()
		if len(passes) >= 2 && spent+float64(p.ns)/1e9 > o.seconds {
			break
		}
	}
	for i, p := range passes[1:] {
		if p.digest != passes[0].digest {
			rep.fail(fmt.Errorf("pass %d digest %s differs from pass 0's %s", i+1, p.digest, passes[0].digest))
		}
	}
	rep.finishDigest(passes[0].digest)

	var rps, rawRps, alloc, p50, rawP50, p99, probeNs []float64
	algSamples := map[string][]float64{}
	for _, p := range passes {
		rps = append(rps, float64(p.refs)/(p.scaledNs/1e9))
		rawRps = append(rawRps, float64(p.refs)/(float64(p.ns)/1e9))
		probeNs = append(probeNs, p.probeNs)
		alloc = append(alloc, float64(p.allocBytes)/float64(p.refs))
		ms := make([]float64, len(p.cells))
		raw := make([]float64, len(p.cells))
		for i, cr := range p.cells {
			ms[i] = cr.scaledNs / 1e6
			raw[i] = float64(cr.ns) / 1e6
		}
		sort.Float64s(ms)
		sort.Float64s(raw)
		p50 = append(p50, percentile(ms, 0.50))
		rawP50 = append(rawP50, percentile(raw, 0.50))
		p99 = append(p99, percentile(ms, 0.99))
		rates := p.rates(in.cells)
		for alg := range rates {
			algSamples[alg] = append(algSamples[alg], rates.rate(alg))
		}
	}
	rep.set("refs_per_s", rps...)
	rep.set("alloc_bytes_per_ref", alloc...)
	rep.set("setup_s", setupS...)
	rep.set("p50_ms", p50...)
	rep.Detail = &detail{
		Passes: len(passes), AlgRefsPerS: map[string]float64{},
		P99Ms: ptr(summarize("ms", p99)),
		Raw: &rawTimes{
			RefsPerS: ptr(summarize("refs/s", rawRps)),
			SetupS:   ptr(summarize("s", setupRaw)),
			P50Ms:    ptr(summarize("ms", rawP50)),
			ProbeNs:  ptr(summarize("ns", probeNs)),
		},
	}
	for alg, xs := range algSamples {
		rep.Detail.AlgRefsPerS[alg] = median(xs)
	}
	return rep
}

// setLayerMetrics derives the per-layer metrics of a sim workload from
// its untraced pass u and traced pass t.
func setLayerMetrics(rep *workloadReport, cells []cell, u, t pass) {
	var all, ra layerTimes
	var b layerBase
	d := &detail{Passes: 1}
	for i, cr := range t.cells {
		c, l := cells[i], cr.layers
		b.wallNs += float64(cr.ns - l.TimerNs)
		if c.multi == nil {
			b.engineNs += float64(cr.ns - l.selfNs() - l.TimerNs)
			b.engineRefs += c.refs
		}
		if c.opts.Algorithm == ppcsim.ReverseAggressive {
			ra.add(l)
			b.raFetches += cr.fetches
		}
		all.add(l)
		d.Cells = append(d.Cells, cellDetail{
			Label: c.label, WallMs: float64(cr.ns) / 1e6, Refs: c.refs,
			RefsPerSec: float64(c.refs) / (float64(cr.ns) / 1e9), Layers: l,
		})
	}
	sort.Slice(d.Cells, func(i, j int) bool { return d.Cells[i].WallMs > d.Cells[j].WallMs })
	rep.Detail = d
	setLayerShares(rep, all, ra, b)
	rates := u.rates(cells)
	setAlgRates(rep, rates)
	rep.set("multi.refs_per_s", rates.rate("multi"))
	setWorstCells(rep, cells, u.cells)
	setCounts(rep, u.counts)
	rep.set("bench.trace_overhead", float64(t.ns)/float64(u.ns)-1)
}

// layerBase holds what the layer metrics divide by.
type layerBase struct {
	wallNs     float64 // host time of every cell, less the wrappers' clock reads
	engineNs   float64 // single-process cell time less policy, disk, trace and clock-read time
	engineRefs int64   // references of single-process cells
	raFetches  int64   // fetches of reverse aggressive cells
}

func setLayerShares(rep *workloadReport, all, ra layerTimes, b layerBase) {
	rep.set("trace.decode_ns_per_ref", ratio(float64(all.TraceNs), float64(all.TraceRefs)))
	rep.set("trace.share", ratio(float64(all.TraceNs), b.wallNs))
	rep.set("policy.poll_ns", ratio(float64(all.PollNs), float64(all.Polls)))
	rep.set("policy.polls_per_ref", ratio(float64(all.Polls), float64(b.engineRefs)))
	rep.set("policy.idle_poll_frac", ratio(float64(all.IdlePolls), float64(all.Polls)))
	rep.set("policy.share", ratio(float64(all.AttachNs+all.PollNs), b.wallNs))
	rep.set("revagg.schedule_share", ratio(float64(ra.AttachNs), b.wallNs))
	rep.set("revagg.poll_ns", ratio(float64(ra.PollNs), float64(ra.Polls)))
	rep.set("revagg.poll_share", ratio(float64(ra.PollNs), b.wallNs))
	rep.set("revagg.forced_issue_frac", ratio(float64(ra.ForcedIssues), float64(b.raFetches)))
	rep.set("disk.service_ns", ratio(float64(all.DiskNs), float64(all.DiskCalls)))
	rep.set("disk.calls_per_ref", ratio(float64(all.DiskCalls), float64(b.engineRefs)))
	rep.set("disk.share", ratio(float64(all.DiskNs), b.wallNs))
	rep.set("engine.self_ns_per_ref", ratio(b.engineNs, float64(b.engineRefs)))
}

// setWorstCells reports the slowest cell's refs/s and the lowest ratio of
// a cell's rate to its 1-disk peer's (same trace, policy and settings).
// ROADMAP's target is that no cell falls below half its 1-disk rate.
func setWorstCells(rep *workloadReport, cells []cell, runs []cellRun) {
	rate := make([]float64, len(cells))
	oneDisk := map[string]float64{}
	for i, c := range cells {
		rate[i] = float64(c.refs) / (float64(runs[i].ns) / 1e9)
		if c.disks == 1 {
			oneDisk[c.family] = rate[i]
		}
	}
	worst, over := math.Inf(1), math.Inf(1)
	for i, c := range cells {
		worst = math.Min(worst, rate[i])
		if base, ok := oneDisk[c.family]; ok {
			over = math.Min(over, rate[i]/base)
		}
	}
	if math.IsInf(over, 1) {
		over = 0
	}
	rep.set("cells.worst_refs_per_s", worst)
	rep.set("cells.worst_over_1disk", over)
}

func setCounts(rep *workloadReport, c simCounts) {
	rep.set("cache.hit_ratio", ratio(float64(c.hits), float64(c.hits+c.misses)))
	rep.set("disk.fetches_per_ref", ratio(float64(c.fetches), float64(c.refs)))
	rep.set("engine.stall_frac", ratio(c.stallSec, c.elapsedSec))
}
