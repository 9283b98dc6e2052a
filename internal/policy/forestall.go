package policy

import (
	"math"

	"ppcsim/internal/cache"
	"ppcsim/internal/engine"
	"ppcsim/internal/layout"
)

const (
	// historyLen is the number of recent disk accesses and compute times
	// forestall averages when estimating F (section 5 of the paper).
	historyLen = 100
	// slowDiskMs is the average access time above which forestall
	// overestimates F by 4x (section 5: traces with small access times —
	// mostly readahead hits served in arrival order — need no
	// overestimate; complicated patterns do).
	slowDiskMs = 5.0
	// overestimateFactor is that overestimate.
	overestimateFactor = 4.0
	// recheckCap bounds how long a disk's stall forecast may be trusted
	// before it is recomputed: F' (and with it every missing position's
	// slack) drifts as disk and compute samples arrive, so the cap bounds
	// how stale the F' behind a "no stall yet" verdict may get.
	recheckCap = 64
	// defaultF seeds the estimate before any disk access completes.
	defaultF = 15.0
)

// Forestall is the paper's new hybrid algorithm: it avoids stalling while
// still making late (near-optimal) replacement decisions by estimating,
// per disk, the point at which prefetching must begin to forestall a
// stall. With dᵢ the distance to the i-th missing block on a disk and F'
// an (over)estimate of the fetch-time/compute-time ratio, a stall is
// inevitable once i·F' > dᵢ, so forestall starts batching prefetches for
// that disk. It also runs fixed horizon's rule, the same code
// FixedHorizon runs — fetch any missing block within H references — to
// survive the stalls CSCAN reordering causes when the i·F' > dᵢ rule
// would delay fetching (section 5, "practical considerations").
type Forestall struct {
	// BatchSize is the per-disk batch limit (0 → Table 6 default).
	BatchSize int
	// Horizon is the fixed-horizon safety rule's H (0 → DefaultHorizon).
	Horizon int
	// FixedF, when positive, disables dynamic estimation and uses this
	// value for F' everywhere (the appendix-H configurations).
	FixedF float64

	s     *engine.State
	batch int
	// window bounds the missing-block scan to 2K references past the
	// cursor, as in the paper.
	window int

	// Recent-history F estimation.
	diskHist [][]float64
	diskSum  []float64
	diskPos  []int
	diskN    []int
	cpuHist  []float64
	cpuSum   float64
	cpuPos   int
	cpuN     int
	seenCPU  int // cursor position up to which compute times were sampled

	// Per-disk stall forecast: recompute disk d's once the cursor
	// reaches nextCheck[d].
	nextCheck []int

	// idx lists each disk's missing positions, which forecast and
	// issueBatch walk instead of the disk's whole window.
	idx missIndex

	// rule is fixed horizon's within-Horizon rule.
	rule horizonRule

	// Work counters: the missing-list entries forecasts examined, and
	// the entries listed when each forecast started.
	examined int64
	listed   int64
}

// NewForestall returns the forestall policy with paper defaults.
func NewForestall() *Forestall { return &Forestall{} }

// Name implements engine.Policy.
func (f *Forestall) Name() string { return "forestall" }

// Attach implements engine.Policy.
func (f *Forestall) Attach(s *engine.State) {
	f.s = s
	d := len(s.Drives)
	f.batch = f.BatchSize
	if f.batch <= 0 {
		f.batch = DefaultBatchSize(d)
	}
	f.window = 2 * s.Cache.Capacity()
	f.diskHist = make([][]float64, d)
	for i := range f.diskHist {
		f.diskHist[i] = make([]float64, historyLen)
	}
	f.diskSum = make([]float64, d)
	f.diskPos = make([]int, d)
	f.diskN = make([]int, d)
	f.cpuHist = make([]float64, historyLen)
	f.cpuSum, f.cpuPos, f.cpuN, f.seenCPU = 0, 0, 0, 0
	f.nextCheck = make([]int, d)
	f.idx.attach(s)
	f.rule.attach(f.Horizon)
	s.OnComplete = f.onComplete
}

// onComplete records a disk access time sample.
func (f *Forestall) onComplete(d int, svc float64) {
	h := f.diskHist[d]
	f.diskSum[d] += svc - h[f.diskPos[d]]
	h[f.diskPos[d]] = svc
	f.diskPos[d] = (f.diskPos[d] + 1) % historyLen
	if f.diskN[d] < historyLen {
		f.diskN[d]++
	}
}

// sampleCPU folds newly consumed inter-reference compute times into the
// history ring.
func (f *Forestall) sampleCPU() {
	c := f.s.Cursor()
	for ; f.seenCPU < c; f.seenCPU++ {
		v := f.s.ComputeMs(f.seenCPU)
		f.cpuSum += v - f.cpuHist[f.cpuPos]
		f.cpuHist[f.cpuPos] = v
		f.cpuPos = (f.cpuPos + 1) % historyLen
		if f.cpuN < historyLen {
			f.cpuN++
		}
	}
}

// fprime returns F' for disk d: the ratio of recent disk time to recent
// compute time, overestimated 4x when the disk is slow, or the fixed
// override.
func (f *Forestall) fprime(d int) float64 {
	if f.FixedF > 0 {
		return f.FixedF
	}
	if f.diskN[d] == 0 || f.cpuN == 0 || f.cpuSum <= 0 {
		return defaultF
	}
	meanDisk := f.diskSum[d] / float64(f.diskN[d])
	meanCPU := f.cpuSum / float64(f.cpuN)
	fEst := meanDisk / meanCPU
	if meanDisk >= slowDiskMs {
		fEst *= overestimateFactor
	}
	if fEst < 1 {
		fEst = 1
	}
	return fEst
}

// Poll implements engine.Policy.
func (f *Forestall) Poll() {
	f.sampleCPU()
	f.rule.poll(f.s, f.noteEviction)
	s := f.s
	c := s.Cursor()
	for d := range s.Drives {
		if !s.DriveFree(d) {
			continue
		}
		if c < f.nextCheck[d] {
			continue
		}
		f.forecast(d)
	}
}

// forecast recomputes disk d's stall forecast over its missing blocks in
// the window; if a stall is inevitable (i*F' > d_i for some i), it issues
// a batch of prefetches, otherwise it schedules the next check for when
// the forecast could first turn bad.
//
//ppcvet:hotpath
func (f *Forestall) forecast(d int) {
	s := f.s
	c := s.Cursor()
	l := f.idx.classify(d, scanEnd(s, f.window), false)
	fp := f.fprime(d)
	i := 0
	// lim is the least slack seen, capped at recheckCap: a negative lim
	// is the trigger, and otherwise max(lim, 1) is the wait until the
	// next check. n bounds the rank of every entry still to come: the
	// live entries so far plus the entries left. An entry after e sits at
	// e.pos+1 or beyond with rank at most n, so its slack is at least
	// e.pos+1-c-int(n*F'); once e.pos reaches stop, no later entry can
	// lower lim, and the walk ends. Stale entries past that point stay
	// listed.
	miss := l.miss
	n := len(miss) - l.lo
	f.listed += int64(n)
	lim := recheckCap
	stop := forecastStop(c, lim, n, fp)
	// Walk the list, compacting stale entries out of it as they surface.
	w := 0
	for r := l.lo; r < len(miss); r++ {
		e := miss[r]
		f.examined++
		if !f.idx.live(e) {
			n--
			continue
		}
		miss[w] = e
		w++
		i++
		if slack := (int(e.pos) - c) - int(float64(i)*fp); slack < lim {
			lim = slack
			stop = forecastStop(c, lim, n, fp)
		}
		if lim < 0 || int(e.pos) >= stop {
			w += copy(miss[w:], miss[r+1:])
			break
		}
	}
	l.miss, l.lo = miss[:w], 0
	if lim >= 0 {
		f.nextCheck[d] = c + max(lim, 1)
		return
	}
	f.issueBatch(d)
	f.nextCheck[d] = c // re-evaluate at the next decision point
}

// forecastStop returns the position from which a live entry ends the
// forecast walk, given lim and the rank bound n. A rank bound whose
// product with F' is not below 2^31 never ends it: converting a larger
// float to int is implementation-defined.
func forecastStop(c, lim, n int, fp float64) int {
	r := float64(n) * fp
	if !(r < 1<<31) {
		return math.MaxInt
	}
	return c + lim - 1 + int(r)
}

// issueBatch fetches up to batch-size first-missing blocks on disk d,
// applying optimal replacement and do no harm. The forecast has already
// classified the disk up to the scan limit, and do no harm only evicts
// blocks needed after the one being fetched, so every insertion lands
// after the batch's progress through the list.
func (f *Forestall) issueBatch(d int) {
	s := f.s
	limit := scanEnd(s, f.window)
	for left := f.batch; left > 0; left-- {
		e := f.idx.head(d, limit)
		if e == noMiss {
			break
		}
		ok, victim, _ := IssueWithVictim(s, e.blk, int(e.pos))
		if !ok {
			break // do no harm stops everything later too
		}
		f.noteEviction(victim)
	}
}

// noteEviction invalidates the stall forecast of the victim's disk: its
// next use has become a missing block, which the index records. The
// recheck reads the next use through NextUseVisible — the raw oracle
// answer would leak knowledge beyond the lookahead window into the
// recheck schedule (harmless for correctness, but it would make windowed
// streamed and materialized runs diverge).
func (f *Forestall) noteEviction(v layout.BlockID) {
	if v == cache.NoBlock {
		return
	}
	if f.s.NextUseVisible(v) < f.s.Cursor()+f.window {
		f.nextCheck[f.s.DiskOf(v)] = 0
	}
	f.idx.evict(v)
}

// OnStall implements engine.Policy.
func (f *Forestall) OnStall(b layout.BlockID) {
	f.noteEviction(demandFetch(f.s, b))
	for d := range f.nextCheck {
		f.nextCheck[d] = 0
	}
}
