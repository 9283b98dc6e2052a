// Package revagg implements the reverse aggressive algorithm of
// Kimbrel and Karlin, as evaluated by the paper (sections 2.5 and 2.7).
//
// Reverse aggressive is offline: assuming a fixed ratio F between disk
// fetch time and inter-reference compute time, it first constructs a
// prefetching schedule for the *reversed* request sequence — whenever a
// disk is free, take the block B not needed for the longest time residing
// on that disk and, if B's next request is after the first missing block
// M, "fetch" M replacing B (the operation occupies B's disk, because in
// the forward direction it is a real fetch of B). The reverse schedule is
// then transformed into forward fetch/eviction pairs: a reverse eviction
// of B becomes a forward fetch of B, and a reverse fetch of M becomes a
// forward eviction of M with a release time (one past M's last forward
// reference before it is fetched back). Fetches are ordered by the
// forward request index they serve, evictions by release time, and the
// two lists are matched rank by rank. The forward pass replays this
// schedule against the real disk model in batches, exactly as the paper
// describes.
package revagg

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"ppcsim/internal/cache"
	"ppcsim/internal/engine"
	"ppcsim/internal/future"
	"ppcsim/internal/layout"
	"ppcsim/internal/policy"
)

// Op is one forward fetch/eviction pair of the constructed schedule.
// Positions are int32, like the oracle's, so an Op is 16 bytes.
type Op struct {
	Fetch layout.BlockID
	// Evict is the block evicted when the fetch issues, or cache.NoBlock
	// for the unpaired fetches of the initial working set.
	Evict layout.BlockID
	// NeedIdx is the forward request index the fetch serves (len(refs)
	// for a fetch that serves no later reference).
	NeedIdx int32
	// Release is the earliest forward index at which Evict may be evicted.
	Release int32
}

// Schedule is the transformed forward schedule: the initial working-set
// fetches (no eviction, release 0) followed by the reverse pass's
// operations in reversed emission order, which is forward-chronological.
// Keeping the reverse pass's own fetch/eviction pairing (rather than
// re-sorting and re-matching by rank) guarantees that every eviction of a
// block precedes its scheduled refetch and that each pair's release time
// protects exactly the block it evicts.
type Schedule struct {
	Ops []Op
}

// testHookDrain, when set, sees every completion step of the reverse
// pass: the indices into pairs of the flights completing, in the order
// their blocks are pushed onto the eviction heaps.
var testHookDrain func(due []int32, pairs []Op)

// BuildSchedule runs the reverse pass in the theoretical model (unit
// compute time per reference, F time units per fetch, fetches batched per
// disk) and returns the forward schedule.
//
// diskOf maps each block to its disk; nBlocks is the block ID space;
// capacity is the cache size K. refs is shorter than future.Never, as
// the engine ensures for every trace, so its positions fit Op's fields.
// refs may also name block nBlocks, the engine's stand-in for a
// write-behind update: the model serves it like a hit, and it neither
// occupies a buffer nor appears in the schedule.
//
//ppcvet:hotpath
func BuildSchedule(refs []layout.BlockID, diskOf func(layout.BlockID) int, nBlocks, disks, capacity int, f float64, batch int) (*Schedule, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("revagg: capacity %d", capacity)
	}
	if f <= 0 {
		return nil, fmt.Errorf("revagg: fetch time estimate %g", f)
	}
	if batch <= 0 {
		return nil, fmt.Errorf("revagg: batch %d", batch)
	}
	n := len(refs)
	rev := make([]layout.BlockID, n)
	for i, b := range refs {
		rev[n-1-i] = b
	}
	oracle := future.New(rev, nBlocks+1)

	st := make([]uint8, nBlocks+1) // 0 absent, 1 in-flight, 2 present, 3 pinned
	const (
		absent  = 0
		flying  = 1
		present = 2
		pinned  = 3 // the write stand-in: always served, never cached
	)
	st[nBlocks] = pinned
	used := 0
	lastUse := make([]int32, nBlocks+1) // last consumed reverse index, -1 if none
	for i := range lastUse {
		lastUse[i] = -1
	}
	heaps := make([]evictHeap, disks) // per-disk furthest-next-use heaps
	freeAt := make([]float64, disks)

	// Paired forward ops in emission order: each fetches the block B the
	// reverse pass evicts and evicts the block M it fetches in its place.
	// Every pair fetches a distinct missing reverse position, so there
	// are at most n of them; the working set appended at the end adds at
	// most one op per cached block.
	pairs := make([]Op, 0, n+min(capacity, nBlocks))

	// In-flight fetches, one queue per occupied disk (B's disk). A flight
	// is identified by its pair, whose index is its issue order. A disk
	// issues a batch only when it is free, and by then every earlier
	// flight on it has completed, so the flights on disk d are the
	// contiguous pairs [qHead[d], qEnd[d]) and their done times are
	// nondecreasing: only a queue's head can complete. doneAt holds each
	// flying block's done time; minDone is the earliest done time among
	// the queue heads.
	qHead := make([]int32, disks)
	qEnd := make([]int32, disks)
	doneAt := make([]float64, nBlocks)
	minDone := math.Inf(1)
	due := make([]int32, 0, disks)

	// Incremental first-missing scanner over the reverse sequence.
	scanPos := 0
	nextMissing := func(cursor int) int {
		if scanPos < cursor {
			scanPos = cursor
		}
		for scanPos < n {
			b := rev[scanPos]
			if st[b] == absent {
				return scanPos
			}
			scanPos++
		}
		return n
	}

	needIdxOf := func(b layout.BlockID) int32 {
		// Forward index served by a forward fetch of b emitted now: b's
		// most recent consumed reverse reference. A block evicted before
		// its first reverse use serves nothing (index n).
		if lastUse[b] < 0 {
			return int32(n)
		}
		return int32(n-1) - lastUse[b]
	}

	push := func(d int, b layout.BlockID) {
		heaps[d].push(evEntry{b, int32(oracle.NextUse(b))})
	}
	furthestOn := func(d int) (layout.BlockID, int) {
		h := &heaps[d]
		for len(*h) > 0 {
			top := (*h)[0]
			if st[top.block] != present || int(top.next) != oracle.NextUse(top.block) {
				h.pop()
				continue
			}
			return top.block, int(top.next)
		}
		return cache.NoBlock, -1
	}

	t := 0.0
	cursor := 0
	for cursor < n {
		// Complete arrived fetches in issue order across all queues: a
		// completed block goes onto its own disk's heap, which flights
		// on other disks also feed, and issue order leaves every heap
		// exactly as one in-flight list in issue order would.
		if t >= minDone {
			due = due[:0]
			minDone = math.Inf(1)
			for d, h := range qHead {
				for ; h < qEnd[d]; h++ {
					if done := doneAt[pairs[h].Evict]; done > t {
						minDone = min(minDone, done)
						break
					}
					due = append(due, h)
				}
				qHead[d] = h
			}
			slices.Sort(due)
			if testHookDrain != nil {
				testHookDrain(due, pairs)
			}
			for _, i := range due {
				m := pairs[i].Evict
				st[m] = present
				push(diskOf(m), m)
			}
		}

		// Warmup: while the cache is not full, missing blocks enter
		// instantly — in the forward direction these blocks simply remain
		// cached at the end of the run, so no operation is emitted.
		for used < capacity {
			p := nextMissing(cursor)
			if p >= n {
				break
			}
			b := rev[p]
			st[b] = present
			used++
			push(diskOf(b), b)
		}

		// Batch construction on every free disk.
		if used >= capacity {
			for d := 0; d < disks; d++ {
				if freeAt[d] > t {
					continue
				}
				// The disk is free, so its queue has drained.
				qHead[d] = int32(len(pairs))
				qEnd[d] = qHead[d]
				for k := 0; k < batch; k++ {
					p := nextMissing(cursor)
					if p >= n {
						break
					}
					m := rev[p]
					b, bNext := furthestOn(d)
					if b == cache.NoBlock || bNext <= p {
						break // do no harm on this disk
					}
					// Emit the op: forward fetch of B serving needIdxOf(B),
					// forward eviction of M with release n-1-p+1 = n-p.
					pairs = append(pairs, Op{
						Fetch:   b,
						NeedIdx: needIdxOf(b),
						Evict:   m,
						Release: int32(n - p),
					})
					// No scanner rewind: B's next use bNext is past p == scanPos.
					st[b] = absent
					done := max(freeAt[d], t) + f
					freeAt[d] = done
					st[m] = flying
					doneAt[m] = done
					minDone = min(minDone, done)
					qEnd[d]++
				}
			}
		}

		// Advance: serve the reference if present, otherwise jump to the
		// earliest in-flight completion.
		b := rev[cursor]
		if st[b] >= present {
			lastUse[b] = int32(cursor)
			cursor++
			oracle.Advance(cursor)
			if st[b] == present {
				push(diskOf(b), b)
			}
			t += 1
			continue
		}
		// Stalled: the block must be in flight (it is the first missing
		// block, so do-no-harm always allows fetching it when a disk
		// frees; in the worst case we wait for a disk).
		if st[b] == flying {
			t = doneAt[b]
			continue
		}
		// Wait for the earliest disk to free so the batch logic can
		// fetch it.
		earliest := slices.Min(freeAt)
		if earliest <= t {
			return nil, fmt.Errorf("revagg: reverse pass wedged at reverse index %d (block %d)", cursor, b)
		}
		t = earliest
	}

	// Drain: blocks still cached at the end of the reverse pass are the
	// forward run's initial working set — fetched from a cold cache with
	// no eviction, released immediately, ordered by the reference they
	// serve and then by block. The cache holds exactly used blocks,
	// present or in flight. The paired operations follow in reversed
	// emission order (reverse time runs backwards through forward time);
	// an eviction of a block always precedes that block's next scheduled
	// fetch in this order. Appending the working set in the reverse of
	// its order and reversing the whole array builds the schedule in
	// place.
	ws := len(pairs)
	for blk := nBlocks - 1; blk >= 0; blk-- {
		if st[blk] != absent {
			pairs = append(pairs, Op{
				Fetch:   layout.BlockID(blk),
				Evict:   cache.NoBlock,
				NeedIdx: needIdxOf(layout.BlockID(blk)),
			})
		}
	}
	slices.SortStableFunc(pairs[ws:], func(a, b Op) int { return cmp.Compare(b.NeedIdx, a.NeedIdx) })
	slices.Reverse(pairs)
	return &Schedule{Ops: pairs}, nil
}

// evEntry / evictHeap: lazy max-heap on reverse next use.
type evEntry struct {
	block layout.BlockID
	next  int32
}

type evictHeap []evEntry

// push and pop make exactly the sift comparisons of container/heap's
// Push and Pop, so ties between equal keys (many blocks are never used
// again) resolve the same way; being typed, they box nothing.
//
//ppcvet:hotpath
func (h *evictHeap) push(e evEntry) {
	*h = append(*h, e)
	a := *h
	for j := len(a) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || a[j].next <= a[i].next {
			break
		}
		a[i], a[j] = a[j], a[i]
		j = i
	}
}

// pop removes the top entry.
//
//ppcvet:hotpath
func (h *evictHeap) pop() {
	a := *h
	n := len(a) - 1
	a[0], a[n] = a[n], a[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && a[j2].next > a[j].next {
			j = j2
		}
		if a[j].next <= a[i].next {
			break
		}
		a[i], a[j] = a[j], a[i]
		i = j
	}
	*h = a[:n]
}

// Stats for diagnostics (read after a run; not part of the public API).
type Stats struct {
	ForcedIssues int // scheduled ops OnStall issued for a stalled block
	AdHocIssues  int // OnStall fetches with no scheduled op
	FallbackEvts int // evictions that deviated from the schedule
}

// Policy replays a reverse aggressive schedule against the real disk
// model: whenever a disk is free, it issues the first up to batch-size
// released pairs whose fetch block resides on that disk.
//
// The replay state is indexed by queue position: the schedule's ops laid
// out disk by disk, each disk's in increasing request-index order. Two
// bitmaps over the positions mark the issued ops and the ready ones
// (unissued and released), so a poll walks only the ready ops of its scan
// window instead of testing every position in it, and skips a disk whose
// window held nothing ready until a release or a forced issue touches it.
type Policy struct {
	// FetchEstimate is the fixed F used to construct the schedule
	// (0 → 32, a mid-range value; the experiments sweep it).
	FetchEstimate float64
	// BatchSize is both the reverse-pass and forward-pass batch size
	// (0 → the Table 6 default for the array size).
	BatchSize int

	s       *engine.State
	batch   int
	ops     []Op    // the schedule in queue order
	diskEnd []int32 // per disk: one past its last queue position
	ptr     []int32 // per disk: first unissued queue position
	// quiet marks a disk whose last scan found nothing ready in its
	// window; a release on the disk or a forced issue there clears it.
	quiet  []bool
	issued []uint64 // bitmap over queue positions
	ready  []uint64 // bitmap over queue positions: unissued and released
	// gated holds the release-gated queue positions in Release order;
	// the first relNext of them are released.
	gated   []int32
	relNext int
	// Per block, the queue positions of its ops in schedule order,
	// blockPos[blockHead[b]:blockEnd[b]], for the stall fallback;
	// blockHead[b] skips the issued ones.
	blockPos  []int32
	blockHead []int32
	blockEnd  []int32

	// Diagnostics.
	Stat Stats
}

// New returns a reverse aggressive policy with the given schedule
// parameters.
func New(fetchEstimate float64, batchSize int) *Policy {
	return &Policy{FetchEstimate: fetchEstimate, BatchSize: batchSize}
}

// Name implements engine.Policy.
func (p *Policy) Name() string { return "reverse-aggressive" }

// RequiresFullTrace marks the policy as incompatible with streaming
// sources: the reverse pass walks the whole reference sequence backwards
// before the run starts, so the engine must materialize the trace.
func (p *Policy) RequiresFullTrace() {}

// Attach implements engine.Policy: it constructs the offline schedule.
func (p *Policy) Attach(s *engine.State) {
	p.s = s
	f := p.FetchEstimate
	if f <= 0 {
		f = 32
	}
	p.batch = p.BatchSize
	if p.batch <= 0 {
		p.batch = policy.DefaultBatchSize(len(s.Drives))
	}
	sched, err := BuildSchedule(s.Refs, func(b layout.BlockID) int { return s.DiskOf(b) },
		s.Layout.NumBlocks(), len(s.Drives), s.Cache.Capacity(), f, p.batch)
	if err != nil {
		panic(fmt.Sprintf("revagg: %v", err))
	}
	ops := sched.Ops
	n, m, disks := len(s.Refs), len(ops), len(s.Drives)

	// Issue fetches in increasing request-index order per disk, as the
	// paper prescribes ("fetches may need to be re-ordered according to
	// increasing request index"): this restores the spatial locality of
	// the request stream for CSCAN and the drive's readahead cache. Each
	// op keeps its own eviction and release time, so the reordering
	// cannot evict a block before its scheduled refetch: the eviction's
	// release is past the refetched block's use, and the engine's stall
	// handling force-issues any fetch the cursor catches up with.
	// Stable counting sorts by NeedIdx, then by disk, order each disk's
	// ops by (NeedIdx, schedule rank).
	ranks := make([]int32, m)
	for k := range ranks {
		ranks[k] = int32(k)
	}
	byNeed, _ := sortByKey(ranks, n+1, func(k int32) int { return int(ops[k].NeedIdx) })
	var order []int32 // queue position → schedule rank
	order, p.diskEnd = sortByKey(byNeed, disks, func(k int32) int { return s.DiskOf(ops[k].Fetch) })
	p.ptr = make([]int32, disks)
	copy(p.ptr[1:], p.diskEnd)
	p.quiet = make([]bool, disks)

	p.issued = make([]uint64, (m+63)/64)
	p.ready = make([]uint64, len(p.issued))
	slot := make([]int32, m) // schedule rank → queue position
	gated := make([]int32, 0, m)
	for g, k := range order {
		slot[k] = int32(g)
		if ops[k].Evict == cache.NoBlock {
			p.ready[g>>6] |= 1 << (g & 63)
		} else {
			gated = append(gated, int32(g))
		}
	}
	p.gated, _ = sortByKey(gated, n+1, func(g int32) int { return int(ops[order[g]].Release) })
	p.relNext = 0

	// Per block, its ops' queue positions in schedule order.
	blockPos, blockEnd := sortByKey(ranks, s.Layout.NumBlocks(), func(k int32) int { return int(ops[k].Fetch) })
	for i, k := range blockPos {
		blockPos[i] = slot[k]
	}
	p.blockPos, p.blockEnd = blockPos, blockEnd
	p.blockHead = make([]int32, len(blockEnd))
	copy(p.blockHead[1:], blockEnd)

	// Lay the schedule out in queue order in place, following the cycles
	// of the rank → queue-position permutation: each swap moves one op
	// to its final position.
	for k := range ops {
		for g := slot[k]; g != int32(k); g = slot[k] {
			ops[k], ops[g] = ops[g], ops[k]
			slot[k], slot[g] = slot[g], g
		}
	}
	p.ops = ops
}

// sortByKey returns idx stably sorted by key(i), which lies in [0, nKeys),
// and the end of each key's run in the sorted slice.
func sortByKey(idx []int32, nKeys int, key func(int32) int) (sorted, end []int32) {
	end = make([]int32, nKeys)
	for _, i := range idx {
		end[key(i)]++
	}
	var sum int32
	for k, c := range end {
		end[k] = sum // the run's start, advanced to its end below
		sum += c
	}
	sorted = make([]int32, len(idx))
	for _, i := range idx {
		k := key(i)
		sorted[end[k]] = i
		end[k]++
	}
	return sorted, end
}

// scanWindow bounds how far past the first unissued op a disk's queue is
// searched for released pairs (releases are only approximately monotone
// in emission order). It defines which ops are eligible, so it is part
// of the algorithm's results, not a tuning knob.
const scanWindow = 256

func (p *Policy) isIssued(g int32) bool { return p.issued[g>>6]&(1<<(g&63)) != 0 }

func (p *Policy) markIssued(g int32) {
	p.issued[g>>6] |= 1 << (g & 63)
	p.ready[g>>6] &^= 1 << (g & 63)
}

// issue fetches op's block, evicting its scheduled victim while that is
// still present and otherwise choosing one by the shared victim rule
// against the reference at needPos. It reports whether the fetch issued
// and whether it evicted a block the schedule did not name.
func (p *Policy) issue(op *Op, needPos int) (issued, fallback bool) {
	if op.Evict != cache.NoBlock && p.s.Cache.Present(op.Evict) {
		p.s.Issue(op.Fetch, op.Evict)
		return true, false
	}
	issued, v, _ := policy.IssueWithVictim(p.s, op.Fetch, needPos)
	return issued, v != cache.NoBlock
}

// issueOp executes the op at queue position g. Returns false if it
// cannot be issued legally.
func (p *Policy) issueOp(g int32) bool {
	op := &p.ops[g]
	if p.s.Cache.Absent(op.Fetch) {
		issued, fallback := p.issue(op, int(op.NeedIdx))
		if !issued {
			return false
		}
		if fallback {
			p.Stat.FallbackEvts++
		}
	}
	// An op whose block is already fetched (e.g. by a stall fallback)
	// is consumed silently.
	p.markIssued(g)
	return true
}

// Poll implements engine.Policy: it releases the ops whose release time
// the cursor has reached, then lets each free disk issue, in queue
// order, up to a batch of the ready ops among the scanWindow positions
// from its first unissued op.
//
//ppcvet:hotpath
func (p *Policy) Poll() {
	s := p.s
	c := s.Cursor()
	for ; p.relNext < len(p.gated); p.relNext++ {
		g := p.gated[p.relNext]
		if int(p.ops[g].Release) > c {
			break
		}
		// OnStall may have forced the op out before its release; it must
		// not become ready again.
		if !p.isIssued(g) {
			p.ready[g>>6] |= 1 << (g & 63)
			p.quiet[s.DiskOf(p.ops[g].Fetch)] = false
		}
	}
	for d, end := range p.diskEnd {
		if p.quiet[d] || !s.DriveFree(d) {
			continue
		}
		g := p.ptr[d]
		for g < end && p.isIssued(g) {
			g++
		}
		p.ptr[d] = g
		lim := g + scanWindow
		if lim > end {
			lim = end
		}
		found := false
		for budget := p.batch; budget > 0 && g < lim; g++ {
			w := p.ready[g>>6] >> (g & 63)
			if w == 0 {
				g |= 63 // the loop step moves to the next word
				continue
			}
			g += int32(bits.TrailingZeros64(w))
			if g >= lim {
				break
			}
			found = true
			if p.issueOp(g) {
				budget--
			}
		}
		p.quiet[d] = !found
	}
}

// OnStall implements engine.Policy: force-issue the scheduled fetch for
// the stalled block, or fall back to a demand fetch.
func (p *Policy) OnStall(b layout.BlockID) {
	s := p.s
	h, end := p.blockHead[b], p.blockEnd[b]
	for h < end && p.isIssued(p.blockPos[h]) {
		h++
	}
	p.blockHead[b] = h
	if h < end {
		g := p.blockPos[h]
		// Do no harm never refuses a stalled block: a victim's next use
		// is never before the cursor.
		if issued, _ := p.issue(&p.ops[g], -1); !issued {
			return // every buffer in flight; the engine retries
		}
		p.markIssued(g)
		p.quiet[s.DiskOf(b)] = false
		p.Stat.ForcedIssues++
		return
	}
	// No scheduled fetch (should not happen with a sound schedule): plain
	// demand fetch.
	p.Stat.AdHocIssues++
	policy.IssueWithVictim(s, b, -1)
}
