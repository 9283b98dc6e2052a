// Package multi extends the simulator to several concurrently executing
// processes sharing one buffer cache and one disk array — the setting the
// paper's section 6 leaves open ("we have not dealt with the question of
// how to allocate buffers among competing processes").
//
// Each process runs its own reference stream with its own compute times;
// hinted processes disclose their future accesses, unhinted ones do not.
// Replacement is global: every cached block is valued by an estimated
// time until next use — for hinted blocks, the hinted reference distance
// scaled by the owner's observed compute rate; for unhinted blocks, the
// block's age (an LRU estimate), in the spirit of TIP2's cost-benefit
// comparison of hinted and unhinted buffers. The block with the largest
// estimate is evicted.
//
// The package exists to test the paper's closing prediction: an
// aggressively prefetching process consumes cache and disk arms that a
// co-running non-hinting process needs, while fixed horizon — which
// "places the least load on the disks and the cache" — interferes least.
package multi

import (
	"container/heap"
	"fmt"
	"math"

	"ppcsim/internal/disk"
	"ppcsim/internal/engine"
	"ppcsim/internal/future"
	"ppcsim/internal/layout"
	"ppcsim/internal/policy"
	"ppcsim/internal/trace"
)

// Algorithm selects a per-process prefetching strategy.
type Algorithm string

// Per-process strategies. Unhinted processes always demand-fetch.
const (
	// FixedHorizon prefetches the process's missing blocks at most H
	// references ahead.
	FixedHorizon Algorithm = "fixed-horizon"
	// Aggressive prefetches the process's first missing blocks whenever a
	// disk is free.
	Aggressive Algorithm = "aggressive"
	// Forestall prefetches a hinted process's missing blocks on a disk as
	// soon as a stall becomes inevitable (i·F' > dᵢ, with F' estimated
	// from the drive's observed service times and the process's compute
	// rate), plus fixed horizon's within-H rule.
	Forestall Algorithm = "forestall"
	// Demand never prefetches (used with or without hints; with hints the
	// process still benefits from informed replacement of its blocks).
	Demand Algorithm = "demand"
)

// ProcessSpec describes one competing process.
type ProcessSpec struct {
	// Trace is the process's private reference stream over its own block
	// space (block IDs are namespaced per process).
	Trace *trace.Trace
	// Algorithm is the prefetching strategy; hinted processes may use
	// FixedHorizon, Aggressive or Forestall, unhinted ones are forced to
	// Demand.
	Algorithm Algorithm
	// Hinted discloses the process's future accesses to the cache
	// manager. Unhinted processes are valued by recency (LRU).
	Hinted bool
	// Horizon is FixedHorizon's H (0 → 62).
	Horizon int
	// Batch is Aggressive's per-disk batch size (0 → Table 6 default).
	Batch int
}

// Config describes a multi-process run.
type Config struct {
	Processes []ProcessSpec
	// Disks is the array size.
	Disks int
	// CacheBlocks is the shared cache capacity.
	CacheBlocks int
	// Discipline is the disk-head scheduling policy (CSCAN default).
	Discipline disk.Discipline
	// DriverOverheadMs per request (0 → 0.5, negative → none).
	DriverOverheadMs float64
	// PlacementSeed seeds the per-file placement of each process's files.
	PlacementSeed int64
	// Model constructs the per-drive service model (nil → HP 97560).
	Model func() disk.Model
}

// ProcessResult reports one process's outcome.
type ProcessResult struct {
	Name          string
	ElapsedSec    float64
	ComputeSec    float64
	DriverTimeSec float64
	StallTimeSec  float64
	Fetches       int64
	CacheHits     int64
	CacheMisses   int64
}

// Result reports a multi-process run: per-process outcomes plus array
// totals. Elapsed is the time until the last process finishes.
type Result struct {
	Processes      []ProcessResult
	ElapsedSec     float64
	AvgUtilization float64
}

// block state in the shared cache.
type bstate uint8

const (
	absent bstate = iota
	inFlight
	present
)

// proc is one running process.
type proc struct {
	spec    ProcessSpec
	name    string
	refs    []layout.BlockID // global block IDs
	compute []float64
	oracle  *future.Oracle // over global IDs, but per-process positions
	cursor  int
	// processAt is when the process issues its next reference; stalled
	// processes wait for their block instead.
	processAt float64
	stalled   bool
	done      bool
	finishAt  float64

	driverMs   float64
	fetches    int64
	hits       int64
	misses     int64
	computeSum float64
	// consumed compute statistics for time valuation.
	consumedMs   float64
	consumedRefs int
	// scan state for fixed horizon / aggressive.
	scanned int
	pending []int
}

// avgComputeMs estimates the process's inter-reference compute time.
func (p *proc) avgComputeMs() float64 {
	if p.consumedRefs == 0 {
		return 1.0
	}
	return p.consumedMs / float64(p.consumedRefs)
}

// Sim is a running multi-process simulation.
type Sim struct {
	cfg      Config
	procs    []*proc
	lay      *layout.Layout
	drives   []*disk.Drive
	overhead float64

	st       []bstate
	owner    []int16   // owning process per global block
	lastUsed []float64 // last access time, for unhinted valuation
	used     int
	capacity int

	h   valueHeap
	now float64
}

// ConfigError is a configuration mistake New rejects. Field names the
// Config field at fault (a process's trace counts as Processes);
// ppcsim.RunMulti returns it as a *ppcsim.ConfigError.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string { return "multi: " + e.Reason }

// New prepares a multi-process simulation. Every configuration mistake
// it finds is a *ConfigError.
func New(cfg Config) (*Sim, error) {
	if len(cfg.Processes) == 0 {
		return nil, &ConfigError{Field: "Processes", Reason: "no processes"}
	}
	if cfg.Disks <= 0 {
		return nil, &ConfigError{Field: "Disks", Reason: "disks must be positive"}
	}
	if cfg.CacheBlocks <= 1 {
		return nil, &ConfigError{Field: "CacheBlocks", Reason: fmt.Sprintf("cache of %d blocks is too small", cfg.CacheBlocks)}
	}
	if cfg.Discipline != disk.CSCAN && cfg.Discipline != disk.FCFS {
		return nil, &ConfigError{Field: "Discipline", Reason: fmt.Sprintf("unknown disk scheduler %v", cfg.Discipline)}
	}
	overhead := cfg.DriverOverheadMs
	switch {
	case math.IsNaN(overhead) || math.IsInf(overhead, 0):
		return nil, &ConfigError{Field: "DriverOverheadMs", Reason: fmt.Sprintf("driver overhead %g is not finite", overhead)}
	case overhead == 0: //ppcvet:ignore unset-config sentinel, assigned by the caller rather than computed
		overhead = engine.DefaultDriverOverheadMs
	case overhead < 0:
		overhead = 0
	}
	model := cfg.Model
	if model == nil {
		model = func() disk.Model { return disk.NewHP97560() }
	}

	// Concatenate the processes' file spaces into one layout.
	var files []layout.File
	offsets := make([]int, len(cfg.Processes))
	next := 0
	for i, ps := range cfg.Processes {
		if ps.Trace == nil {
			return nil, &ConfigError{Field: "Processes", Reason: fmt.Sprintf("process %d has no trace", i)}
		}
		if err := ps.Trace.Validate(); err != nil {
			return nil, &ConfigError{Field: "Processes", Reason: fmt.Sprintf("process %d: %v", i, err)}
		}
		offsets[i] = next
		for _, f := range ps.Trace.Files {
			files = append(files, layout.File{First: layout.BlockID(next + int(f.First)), Blocks: f.Blocks})
		}
		next += ps.Trace.NumBlocks()
	}
	lay, err := layout.NewFiles(files, cfg.Disks, cfg.PlacementSeed)
	if err != nil {
		return nil, fmt.Errorf("multi: %w", err)
	}

	s := &Sim{
		cfg:      cfg,
		lay:      lay,
		overhead: overhead,
		st:       make([]bstate, next),
		owner:    make([]int16, next),
		lastUsed: make([]float64, next),
		capacity: cfg.CacheBlocks,
	}
	s.drives = make([]*disk.Drive, cfg.Disks)
	for i := range s.drives {
		s.drives[i] = disk.NewDrive(model(), cfg.Discipline)
	}
	for i, ps := range cfg.Processes {
		spec := ps
		if !spec.Hinted {
			spec.Algorithm = Demand
		}
		if spec.Horizon <= 0 {
			spec.Horizon = policy.DefaultHorizon
		}
		if spec.Batch <= 0 {
			spec.Batch = policy.DefaultBatchSize(cfg.Disks)
		}
		p := &proc{
			spec: spec,
			name: fmt.Sprintf("p%d:%s", i, ps.Trace.Name),
		}
		p.refs = make([]layout.BlockID, len(ps.Trace.Refs))
		p.compute = make([]float64, len(ps.Trace.Refs))
		for j, r := range ps.Trace.Refs {
			if r.Write {
				return nil, &ConfigError{Field: "Processes", Reason: fmt.Sprintf("process %d: write references are not supported", i)}
			}
			p.refs[j] = r.Block + layout.BlockID(offsets[i])
			p.compute[j] = r.ComputeMs
			p.computeSum += r.ComputeMs
		}
		// The per-process oracle is built over the global block space so
		// NextUse works on global IDs.
		p.oracle = future.New(p.refs, next)
		p.processAt = p.compute[0]
		s.procs = append(s.procs, p)
		for _, b := range p.refs {
			s.owner[b] = int16(i)
		}
	}
	return s, nil
}

// ttnu estimates, in milliseconds from now, when block b is next needed:
// the hinted reference distance scaled by the owner's compute rate, or
// the block's age for unhinted owners (older = later reuse, LRU).
func (s *Sim) ttnu(b layout.BlockID) float64 {
	p := s.procs[s.owner[b]]
	if p.spec.Hinted {
		u := p.oracle.NextUse(b)
		if u == future.Never || p.done {
			return math.Inf(1)
		}
		return float64(u-p.cursor) * p.avgComputeMs()
	}
	return s.now - s.lastUsed[b]
}

// furthest pops the valid present block with the largest estimated time
// until next use.
func (s *Sim) furthest() (layout.BlockID, float64) {
	for s.h.Len() > 0 {
		top := s.h[0]
		if s.st[top.block] != present {
			heap.Pop(&s.h)
			continue
		}
		cur := s.ttnu(top.block)
		// Lazy heap: the stored key may be stale; refresh when the
		// current value is better (smaller) than stored, otherwise the
		// entry is an acceptable approximation.
		if cur < top.key*0.5 {
			heap.Pop(&s.h)
			heap.Push(&s.h, entry{block: top.block, key: cur})
			continue
		}
		return top.block, cur
	}
	return -1, -1
}

// push (re)registers a present block in the valuation heap.
func (s *Sim) push(b layout.BlockID) {
	heap.Push(&s.h, entry{block: b, key: s.ttnu(b)})
}

type entry struct {
	block layout.BlockID
	key   float64
}

type valueHeap []entry

func (h valueHeap) Len() int            { return len(h) }
func (h valueHeap) Less(i, j int) bool  { return h[i].key > h[j].key }
func (h valueHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *valueHeap) Push(x interface{}) { *h = append(*h, x.(entry)) }
func (h *valueHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// issue starts a fetch of b for process p, evicting victim (or -1 for a
// free buffer). Returns false if no legal eviction exists.
func (s *Sim) issue(p *proc, b layout.BlockID) bool {
	if s.st[b] != absent {
		return true // already on the way
	}
	if s.used < s.capacity {
		s.used++
	} else {
		v, _ := s.furthest()
		if v < 0 {
			return false // everything in flight
		}
		s.st[v] = absent
	}
	s.st[b] = inFlight
	pl := s.lay.Lookup(b)
	s.drives[pl.Disk].Enqueue(&disk.Request{Block: b, LBN: pl.LBN}, s.now)
	p.fetches++
	p.driverMs += s.overhead
	if !p.stalled && !p.done {
		p.processAt += s.overhead
	}
	return true
}

// issueGuarded is issue with the do-no-harm rule: the victim's estimated
// time to next use must exceed the fetched block's.
func (s *Sim) issueGuarded(p *proc, b layout.BlockID) bool {
	if s.st[b] != absent {
		return true
	}
	if s.used >= s.capacity {
		v, vT := s.furthest()
		if v < 0 || vT <= s.ttnu(b) {
			return false
		}
	}
	return s.issue(p, b)
}

// decide gives every hinted process its prefetching opportunities.
func (s *Sim) decide() {
	for _, p := range s.procs {
		if p.done {
			continue
		}
		switch p.spec.Algorithm {
		case FixedHorizon:
			s.decideFH(p)
		case Aggressive:
			s.decideAggressive(p)
		case Forestall:
			s.decideForestall(p)
		}
	}
}

// decideFH fetches p's missing blocks within H references of its cursor,
// soonest first.
func (s *Sim) decideFH(p *proc) {
	limit := p.cursor + p.spec.Horizon
	if n := len(p.refs); limit > n {
		limit = n
	}
	if p.scanned < p.cursor {
		p.scanned = p.cursor
	}
	for ; p.scanned < limit; p.scanned++ {
		if s.st[p.refs[p.scanned]] == absent {
			p.pending = append(p.pending, p.scanned)
		}
	}
	kept := p.pending[:0]
	for _, q := range p.pending {
		if q < p.cursor {
			continue
		}
		b := p.refs[q]
		if s.st[b] != absent {
			continue
		}
		if !s.issueGuarded(p, b) {
			kept = append(kept, q)
		}
	}
	p.pending = kept
}

// decideAggressive batches p's first missing blocks onto free disks.
func (s *Sim) decideAggressive(p *proc) {
	budget := make([]int, len(s.drives))
	free := false
	for i, d := range s.drives {
		if d.Outstanding() == 0 {
			budget[i] = p.spec.Batch
			free = true
		}
	}
	if !free {
		return
	}
	// Scan ahead for missing blocks; a bounded window keeps this cheap.
	limit := p.cursor + 4*s.capacity
	if n := len(p.refs); limit > n {
		limit = n
	}
	for q := p.cursor; q < limit; q++ {
		b := p.refs[q]
		if s.st[b] != absent {
			continue
		}
		d := s.lay.Lookup(b).Disk
		if budget[d] == 0 {
			continue
		}
		if !s.issueGuarded(p, b) {
			return // do no harm blocks everything later too
		}
		budget[d]--
		any := false
		for _, left := range budget {
			if left > 0 {
				any = true
			}
		}
		if !any {
			return
		}
	}
}

// decideForestall applies the forestall rule for process p: the
// within-horizon rule always, and per-disk batches whenever the stall
// forecast i·F' > dᵢ fires for that disk.
func (s *Sim) decideForestall(p *proc) {
	s.decideFH(p)
	window := 2 * s.capacity
	limit := p.cursor + window
	if n := len(p.refs); limit > n {
		limit = n
	}
	for d, dr := range s.drives {
		if dr.Outstanding() != 0 {
			continue
		}
		// F' for this process/disk pair: observed mean service over the
		// process's compute rate, overestimated 4x for slow disks as in
		// the single-process forestall.
		svc := dr.MeanServiceMs()
		if svc <= 0 {
			svc = 15
		}
		fp := svc / p.avgComputeMs()
		if svc >= 5 {
			fp *= 4
		}
		if fp < 1 {
			fp = 1
		}
		// Forecast: does some prefix of p's missing blocks on d force a
		// stall?
		i := 0
		trigger := false
		for q := p.cursor; q < limit; q++ {
			b := p.refs[q]
			if s.st[b] != absent || s.lay.Lookup(b).Disk != d {
				continue
			}
			i++
			if float64(i)*fp > float64(q-p.cursor) {
				trigger = true
				break
			}
		}
		if !trigger {
			continue
		}
		left := p.spec.Batch
		for q := p.cursor; q < limit && left > 0; q++ {
			b := p.refs[q]
			if s.st[b] != absent || s.lay.Lookup(b).Disk != d {
				continue
			}
			if !s.issueGuarded(p, b) {
				break
			}
			left--
		}
	}
}

// Run executes all processes to completion.
func (s *Sim) Run() (Result, error) {
	s.decide()
	for {
		allDone := true
		for _, p := range s.procs {
			if !p.done {
				allDone = false
			}
		}
		if allDone {
			break
		}

		// Next event: earliest runnable process or disk completion.
		nextT := math.Inf(1)
		var nextP *proc
		for _, p := range s.procs {
			if !p.done && !p.stalled && p.processAt < nextT {
				nextT = p.processAt
				nextP = p
			}
		}
		diskT := math.Inf(1)
		nextD := -1
		for i, d := range s.drives {
			if d.Busy() && d.BusyEnd() < diskT {
				diskT = d.BusyEnd()
				nextD = i
			}
		}
		if nextP == nil && nextD < 0 {
			return Result{}, fmt.Errorf("multi: deadlock at t=%.3f", s.now)
		}

		if nextD >= 0 && diskT < nextT {
			// Disk completion.
			s.now = diskT
			req := s.drives[nextD].Complete(s.now)
			s.st[req.Block] = present
			s.lastUsed[req.Block] = s.now
			s.push(req.Block)
			// Wake any process stalled on this block.
			for _, p := range s.procs {
				if p.done || !p.stalled {
					continue
				}
				if p.refs[p.cursor] == req.Block {
					p.stalled = false
					p.processAt = s.now
					s.serve(p, false)
				}
			}
			s.decide()
			s.ensureStalledFetches()
			continue
		}

		// Process reference.
		s.now = nextT
		p := nextP
		b := p.refs[p.cursor]
		if s.st[b] == present {
			s.serve(p, true)
			s.decide()
			continue
		}
		p.stalled = true
		p.misses++
		s.ensureStalledFetches()
	}

	// Collect results.
	res := Result{}
	last := 0.0
	for _, p := range s.procs {
		if p.finishAt > last {
			last = p.finishAt
		}
		stall := p.finishAt - p.computeSum - p.driverMs
		if stall < 0 {
			stall = 0
		}
		res.Processes = append(res.Processes, ProcessResult{
			Name:          p.name,
			ElapsedSec:    p.finishAt / 1000,
			ComputeSec:    p.computeSum / 1000,
			DriverTimeSec: p.driverMs / 1000,
			StallTimeSec:  stall / 1000,
			Fetches:       p.fetches,
			CacheHits:     p.hits,
			CacheMisses:   p.misses,
		})
	}
	res.ElapsedSec = last / 1000
	if last > 0 {
		busy := 0.0
		for _, d := range s.drives {
			busy += d.BusyTime()
		}
		res.AvgUtilization = busy / last / float64(len(s.drives))
	}
	return res, nil
}

// serve consumes p's current reference (the block must be present); hit
// reports whether the reference was served without stalling.
func (s *Sim) serve(p *proc, hit bool) {
	b := p.refs[p.cursor]
	if s.st[b] != present {
		panic(fmt.Sprintf("multi: serving absent block %d", b))
	}
	if hit {
		p.hits++
	}
	s.lastUsed[b] = s.now
	p.consumedMs += p.compute[p.cursor]
	p.consumedRefs++
	p.cursor++
	p.oracle.Advance(p.cursor)
	s.push(b)
	if p.cursor >= len(p.refs) {
		p.done = true
		p.finishAt = s.now
		return
	}
	p.processAt = s.now + p.compute[p.cursor]
}

// ensureStalledFetches demand-fetches every stalled process's block.
func (s *Sim) ensureStalledFetches() {
	for _, p := range s.procs {
		if p.done || !p.stalled {
			continue
		}
		b := p.refs[p.cursor]
		if s.st[b] == absent {
			s.issue(p, b)
		}
	}
}

// Run is the package-level convenience wrapper.
func Run(cfg Config) (Result, error) {
	s, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	return s.Run()
}
