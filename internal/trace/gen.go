package trace

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"ppcsim/internal/layout"
)

// The generators below synthesize the ten traces of the paper. Each one
// matches Table 3 exactly (read count, distinct blocks, total compute
// time) and follows the access structure section 3.1 describes. The
// original DECstation traces are not available; DESIGN.md section 4
// documents this substitution.

// Target totals from Table 3 of the paper.
const (
	dineroReads, dineroDistinct         = 8867, 986
	cscope1Reads, cscope1Distinct       = 8673, 1073
	cscope2Reads, cscope2Distinct       = 20206, 2462
	cscope3Reads, cscope3Distinct       = 30200, 3910
	glimpseReads, glimpseDistinct       = 27981, 5247
	ldReads, ldDistinct                 = 5881, 2882
	pgJoinReads, pgJoinDistinct         = 8896, 3793
	pgSelectReads, pgSelectDistinct     = 5044, 3085
	xdsReads, xdsDistinct               = 10435, 5392
	synthReads, synthDistinct           = 100000, 2000
	dineroComputeSec                    = 103.5
	cscope1ComputeSec                   = 24.9
	cscope2ComputeSec                   = 37.1
	cscope3ComputeSec                   = 74.1
	glimpseComputeSec                   = 38.7
	ldComputeSec                        = 8.2
	pgJoinComputeSec                    = 79.2
	pgSelectComputeSec                  = 11.5
	xdsComputeSec                       = 30.8
	synthComputeSec                     = 99.9
	defaultCacheBlocks, smallCacheBlock = 1280, 512
)

// builder accumulates references and per-reference compute weights; the
// weights are scaled at the end so total compute matches the target.
type builder struct {
	refs    []Ref
	weights []float64
	rng     *rand.Rand
}

func newBuilder(capacity int, seed int64) *builder {
	return &builder{
		refs:    make([]Ref, 0, capacity),
		weights: make([]float64, 0, capacity),
		rng:     rand.New(rand.NewSource(seed)),
	}
}

// add appends a reference with the given relative compute weight.
func (b *builder) add(block int, weight float64) {
	b.refs = append(b.refs, Ref{Block: layout.BlockID(block)})
	b.weights = append(b.weights, weight)
}

// noisy returns a weight of 1 with mild multiplicative noise, modeling the
// natural variation of measured inter-reference CPU times.
func (b *builder) noisy() float64 {
	return 0.5 + float64(b.rng.Float64()) // uniform in [0.5, 1.5)
}

// finish normalizes weights so total compute equals computeSec and
// returns the trace.
func (b *builder) finish(name string, files []layout.File, byFile bool, cacheBlocks int, computeSec float64) *Trace {
	sum := 0.0
	for _, w := range b.weights {
		sum += w
	}
	scale := computeSec * 1000.0 / sum
	for i := range b.refs {
		b.refs[i].ComputeMs = b.weights[i] * scale
	}
	t := &Trace{
		Name:        name,
		Refs:        b.refs,
		Files:       files,
		PlaceByFile: byFile,
		CacheBlocks: cacheBlocks,
	}
	if err := t.Validate(); err != nil {
		panic(fmt.Sprintf("trace generator %s produced invalid trace: %v", name, err))
	}
	return t
}

// splitFiles partitions n blocks into roughly count files of varying size,
// returning contiguous layout.Files.
func splitFiles(n, count int, rng *rand.Rand) []layout.File {
	if count > n {
		count = n
	}
	// Random positive sizes summing to n: draw count-1 distinct cut points.
	cuts := map[int]struct{}{}
	for len(cuts) < count-1 {
		cuts[1+rng.Intn(n-1)] = struct{}{}
	}
	points := make([]int, 0, count+1)
	points = append(points, 0)
	for c := range cuts {
		points = append(points, c)
	}
	points = append(points, n)
	sort.Ints(points)
	files := make([]layout.File, 0, count)
	for i := 0; i+1 < len(points); i++ {
		files = append(files, layout.File{
			First:  layout.BlockID(points[i]),
			Blocks: points[i+1] - points[i],
		})
	}
	return files
}

// sequentialPasses emits `full` complete sequential passes over blocks
// [0, n) followed by a partial pass of `extra` references.
func sequentialPasses(b *builder, n, full, extra int) {
	for p := 0; p < full; p++ {
		for i := 0; i < n; i++ {
			b.add(i, b.noisy())
		}
	}
	for i := 0; i < extra; i++ {
		b.add(i, b.noisy())
	}
}

// Dinero generates the dinero trace: a cache simulator that reads one
// file sequentially multiple times (8867 reads of 986 distinct blocks,
// 103.5 s of compute).
func Dinero() *Trace {
	b := newBuilder(dineroReads, 101)
	full := dineroReads / dineroDistinct
	sequentialPasses(b, dineroDistinct, full, dineroReads-full*dineroDistinct)
	files := []layout.File{{First: 0, Blocks: dineroDistinct}}
	return b.finish("dinero", files, true, smallCacheBlock, dineroComputeSec)
}

// Cscope1 generates the cscope1 trace: an interactive C-source examination
// tool searching for eight symbols, reading multiple files sequentially
// multiple times.
func Cscope1() *Trace {
	b := newBuilder(cscope1Reads, 102)
	full := cscope1Reads / cscope1Distinct
	sequentialPasses(b, cscope1Distinct, full, cscope1Reads-full*cscope1Distinct)
	files := splitFiles(cscope1Distinct, 14, b.rng)
	return b.finish("cscope1", files, true, smallCacheBlock, cscope1ComputeSec)
}

// Cscope2 generates the cscope2 trace: four text-string searches over an
// 18 MB software package.
func Cscope2() *Trace {
	b := newBuilder(cscope2Reads, 103)
	full := cscope2Reads / cscope2Distinct
	sequentialPasses(b, cscope2Distinct, full, cscope2Reads-full*cscope2Distinct)
	files := splitFiles(cscope2Distinct, 40, b.rng)
	return b.finish("cscope2", files, true, defaultCacheBlocks, cscope2ComputeSec)
}

// Cscope3 generates the cscope3 trace: four text-string searches over a
// 10 MB package. Its inter-reference compute times are bursty — runs near
// 1 ms interspersed with runs near 7 ms — which section 4.3 of the paper
// identifies as the cause of reverse aggressive's poor single-disk
// performance on this trace.
func Cscope3() *Trace {
	b := newBuilder(cscope3Reads, 104)
	full := cscope3Reads / cscope3Distinct
	total := full*cscope3Distinct + (cscope3Reads - full*cscope3Distinct)
	// Emit the reference stream first with unit weights, then overwrite
	// the weights with bursty 1 ms / 7 ms runs.
	sequentialPasses(b, cscope3Distinct, full, cscope3Reads-full*cscope3Distinct)
	// Fraction of references in the fast (1 ms) regime so the mean comes
	// out near the Table 3 total: mean = p*1 + (1-p)*7.
	mean := cscope3ComputeSec * 1000 / float64(total)
	p := (7 - mean) / 6
	fast := true
	runLeft := 0
	for i := range b.weights {
		if runLeft == 0 {
			// Geometric run lengths, mean ~60 references, biased so the
			// overall time split matches p.
			if b.rng.Float64() < p {
				fast = true
			} else {
				fast = false
			}
			runLeft = 30 + b.rng.Intn(60)
		}
		runLeft--
		w := 7.0
		if fast {
			w = 1.0
		}
		b.weights[i] = w * (0.9 + float64(0.2*b.rng.Float64()))
	}
	files := splitFiles(cscope3Distinct, 30, b.rng)
	return b.finish("cscope3", files, true, defaultCacheBlocks, cscope3ComputeSec)
}

// Glimpse generates the glimpse trace: a text-retrieval system searching
// for four keywords. The small approximate index files are accessed
// repeatedly; the data files are read in short sequential runs, with a
// hot region of articles revisited by every search (so cache size
// matters, as in the paper's appendix-D experiments) and the rest read
// once.
func Glimpse() *Trace {
	const (
		indexBlocks = 247
		dataBlocks  = glimpseDistinct - indexBlocks // 5000
		searches    = 4
		hotBlocks   = 1500 // data region re-read by searches 2..4
		dataRun     = 8
	)
	b := newBuilder(glimpseReads, 105)
	// Build the data-read sequence: each search reads its quarter of the
	// data fresh; searches after the first also rescan the hot region.
	perSearch := dataBlocks / searches // 1250
	var dataSeq []int
	for s := 0; s < searches; s++ {
		lo := s * perSearch
		hi := lo + perSearch
		if s == searches-1 {
			hi = dataBlocks
		}
		if s > 0 {
			// Interleave the hot rescan with this search's fresh reads so
			// re-references are spread through the search.
			fresh := hi - lo
			hs, fs := 0, 0
			for hs < hotBlocks || fs < fresh {
				for j := 0; j < dataRun && hs < hotBlocks; j++ {
					dataSeq = append(dataSeq, hs)
					hs++
				}
				for j := 0; j < dataRun && fs < fresh; j++ {
					dataSeq = append(dataSeq, lo+fs)
					fs++
				}
			}
		} else {
			for d := lo; d < hi; d++ {
				dataSeq = append(dataSeq, d)
			}
		}
	}
	indexReads := glimpseReads - len(dataSeq)
	// Interleave: cycle sequentially over the index; after the right
	// number of index reads, emit a short sequential run of data blocks.
	emitted := 0
	acc := 0.0
	perIndex := float64(len(dataSeq)) / float64(indexReads)
	for i := 0; i < indexReads; i++ {
		b.add(i%indexBlocks, b.noisy())
		acc += perIndex
		if acc >= float64(dataRun) || (i == indexReads-1 && emitted < len(dataSeq)) {
			run := int(acc)
			if i == indexReads-1 {
				run = len(dataSeq) - emitted
			}
			for j := 0; j < run && emitted < len(dataSeq); j++ {
				b.add(indexBlocks+dataSeq[emitted], b.noisy())
				emitted++
			}
			acc -= float64(run)
		}
	}
	files := []layout.File{
		{First: 0, Blocks: indexBlocks},
	}
	files = append(files, splitFilesFrom(indexBlocks, dataBlocks, 25, b.rng)...)
	return b.finish("glimpse", files, true, defaultCacheBlocks, glimpseComputeSec)
}

// splitFilesFrom is splitFiles with a starting offset.
func splitFilesFrom(first, n, count int, rng *rand.Rand) []layout.File {
	fs := splitFiles(n, count, rng)
	for i := range fs {
		fs[i].First += layout.BlockID(first)
	}
	return fs
}

// Ld generates the ld trace: the Ultrix link-editor building a kernel
// from ~25 MB of object files — two sequential passes over the objects
// (symbol resolution, then relocation) plus header re-reads.
func Ld() *Trace {
	b := newBuilder(ldReads, 106)
	files := splitFiles(ldDistinct, 72, b.rng)
	passes := ldReads / ldDistinct // 2
	for p := 0; p < passes; p++ {
		for i := 0; i < ldDistinct; i++ {
			b.add(i, b.noisy())
		}
	}
	// Remaining references re-read object-file headers (first block of
	// each file), as the linker revisits symbol tables.
	extra := ldReads - passes*ldDistinct
	for i := 0; i < extra; i++ {
		f := files[i%len(files)]
		b.add(int(f.First), b.noisy())
	}
	return b.finish("ld", files, true, defaultCacheBlocks, ldComputeSec)
}

// PostgresJoin generates the postgres-join trace: a join between an
// indexed 32 MB relation and a non-indexed 3.2 MB relation. The inner
// relation is scanned sequentially; the index blocks are accessed much
// more frequently than the outer data blocks (paper section 3.1).
func PostgresJoin() *Trace {
	const (
		innerBlocks = 410  // 3.2 MB relation
		indexSpace  = 100  // hot index: 1 root + 99 leaves
		outerSpace  = 4096 // 32 MB relation block space
	)
	outerDistinct := pgJoinDistinct - innerBlocks - indexSpace // 3283
	b := newBuilder(pgJoinReads, 107)
	// Block ID map: [0,410) inner, [410,510) index, [510, 510+4096) outer.
	const innerBase, indexBase, outerBase = 0, innerBlocks, innerBlocks + indexSpace
	// Sequential scan of the inner relation.
	for i := 0; i < innerBlocks; i++ {
		b.add(innerBase+i, b.noisy())
	}
	// Choose which outer blocks the join touches and the (key-ordered,
	// effectively scattered) order it touches them in.
	outer := b.rng.Perm(outerSpace)[:outerDistinct]
	// Index lookups per outer access: root re-read periodically, leaf per
	// lookup, cycling in key order.
	indexReads := pgJoinReads - innerBlocks - outerDistinct // 5203
	rootReads := indexReads - outerDistinct                 // 1920
	rootAcc := 0.0
	rootPer := float64(rootReads) / float64(outerDistinct)
	for j, ob := range outer {
		rootAcc += rootPer
		if rootAcc >= 1 {
			b.add(indexBase, b.noisy()) // root
			rootAcc--
		}
		leaf := 1 + j*(indexSpace-1)/outerDistinct
		b.add(indexBase+leaf, b.noisy())
		b.add(outerBase+ob, b.noisy())
	}
	// Rounding may leave a few root reads unemitted; flush them.
	for len(b.refs) < pgJoinReads {
		b.add(indexBase, b.noisy())
	}
	files := []layout.File{
		{First: 0, Blocks: innerBlocks},
		{First: innerBlocks, Blocks: indexSpace},
		{First: innerBlocks + indexSpace, Blocks: outerSpace},
	}
	return b.finish("postgres-join", files, false, defaultCacheBlocks, pgJoinComputeSec)
}

// PostgresSelect generates the postgres-select trace: an indexed selection
// of 2% of the tuples of a 32 MB relation. The index is scanned in key
// order, but keys are uncorrelated with physical placement (a
// non-clustered index), so the data-block accesses are effectively
// random — which is what gives the paper its ~15 ms average fetch times
// and the large CSCAN-over-FCFS gains of Table 5. Index root and leaf
// blocks are re-read between data accesses. Its compute time (11.5 s)
// follows the paper's appendix tables (Table 16, Figure 2: a 13.0 s
// compute-bound floor), making the trace I/O-bound up to large arrays;
// Table 3's compute column prints the postgres pair the other way around.
func PostgresSelect() *Trace {
	const (
		indexSpace = 85 // 1 root + 84 leaves
		dataSpace  = 4096
	)
	dataDistinct := pgSelectDistinct - indexSpace // 3000
	b := newBuilder(pgSelectReads, 108)
	const indexBase, dataBase = 0, indexSpace
	// Data blocks in key order = random physical order.
	perm := b.rng.Perm(dataSpace)[:dataDistinct]
	indexReads := pgSelectReads - dataDistinct // 2044
	leafReads := indexReads / 2
	rootReads := indexReads - leafReads
	leafAcc, rootAcc := 0.0, 0.0
	leafPer := float64(leafReads) / float64(dataDistinct)
	rootPer := float64(rootReads) / float64(dataDistinct)
	for j, db := range perm {
		rootAcc += rootPer
		if rootAcc >= 1 {
			b.add(indexBase, b.noisy())
			rootAcc--
		}
		leafAcc += leafPer
		if leafAcc >= 1 {
			leaf := 1 + j*(indexSpace-1)/dataDistinct
			b.add(indexBase+leaf, b.noisy())
			leafAcc--
		}
		b.add(dataBase+db, b.noisy())
	}
	for len(b.refs) < pgSelectReads {
		b.add(indexBase, b.noisy())
	}
	files := []layout.File{
		{First: 0, Blocks: indexSpace},
		{First: indexSpace, Blocks: dataSpace},
	}
	return b.finish("postgres-select", files, false, defaultCacheBlocks, pgSelectComputeSec)
}

// Xds generates the xds trace: XDataSlice extracting 25 planar slices at
// random orientations from a 64 MB (8192-block) data file. Each slice
// reads a strided pattern of blocks (the walk a planar cut makes through
// the volume); consecutive slices overlap the earlier ones.
func Xds() *Trace {
	const fileBlocks = 8192
	const slices = 25
	b := newBuilder(xdsReads, 109)
	per := xdsReads / slices // 417 references per slice
	seen := make([]bool, fileBlocks)
	// New-block quota per slice: the first slice is all new; the rest
	// split the remaining distinct blocks evenly, so the trace lands
	// exactly on the Table 3 totals while keeping each slice a strided
	// walk with realistic overlap.
	quota := make([]int, slices)
	quota[0] = per
	rest := xdsDistinct - per
	for s := 1; s < slices; s++ {
		quota[s] = rest / (slices - 1)
	}
	quota[slices-1] += rest % (slices - 1)
	var already []int // seen blocks, in first-seen order
	for s := 0; s < slices; s++ {
		refs := per
		if s == slices-1 {
			refs = xdsReads - (slices-1)*per // absorb the remainder
		}
		start := b.rng.Intn(fileBlocks)
		stride := 1 + b.rng.Intn(31)
		newLeft := quota[s]
		reRead := 0
		for i := 0; i < refs; i++ {
			blk := (start + i*stride) % fileBlocks
			if !seen[blk] && newLeft == 0 {
				// Out of new-block quota: revisit an earlier block at a
				// similar depth in the volume instead.
				blk = already[(s*31+reRead*7)%len(already)]
				reRead++
			} else if seen[blk] && newLeft >= refs-i {
				// Must spend every remaining reference on a new block:
				// step forward to the next unseen one.
				for seen[blk] {
					blk = (blk + 1) % fileBlocks
				}
			}
			if !seen[blk] {
				seen[blk] = true
				already = append(already, blk)
				newLeft--
			}
			b.add(blk, b.noisy())
		}
	}
	files := []layout.File{{First: 0, Blocks: fileBlocks}}
	return b.finish("xds", files, false, defaultCacheBlocks, xdsComputeSec)
}

// Synth generates the synthetic trace of the paper: 50 passes through a
// loop of 2000 sequential blocks, with compute times drawn from an
// exponential distribution with a 1 ms mean (normalized to the 99.9 s
// total of Table 3).
func Synth() *Trace {
	b := newBuilder(synthReads, 110)
	for p := 0; p < synthReads/synthDistinct; p++ {
		for i := 0; i < synthDistinct; i++ {
			b.add(i, b.rng.ExpFloat64())
		}
	}
	files := []layout.File{{First: 0, Blocks: synthDistinct}}
	return b.finish("synth", files, false, defaultCacheBlocks, synthComputeSec)
}

// Names lists the traces in the paper's Table 3 order.
var Names = []string{
	"dinero", "cscope1", "cscope2", "cscope3", "glimpse",
	"ld", "postgres-join", "postgres-select", "xds", "synth",
}

var generators = map[string]func() *Trace{
	"dinero":          Dinero,
	"cscope1":         Cscope1,
	"cscope2":         Cscope2,
	"cscope3":         Cscope3,
	"glimpse":         Glimpse,
	"ld":              Ld,
	"postgres-join":   PostgresJoin,
	"postgres-select": PostgresSelect,
	"xds":             Xds,
	"synth":           Synth,
}

// ByName generates the named trace.
func ByName(name string) (*Trace, error) {
	g, ok := generators[name]
	if !ok {
		return nil, fmt.Errorf("trace: unknown trace %q (have %v)", name, Names)
	}
	return g(), nil
}

// All generates every trace in Table 3 order.
func All() []*Trace {
	out := make([]*Trace, 0, len(Names))
	for _, n := range Names {
		t, err := ByName(n)
		if err != nil {
			panic(err)
		}
		out = append(out, t)
	}
	return out
}

// PaperStats returns the Table 3 row for the named trace, used by tests to
// pin the generators to the paper.
func PaperStats(name string) (Stats, bool) {
	rows := map[string]Stats{
		"dinero":          {Reads: dineroReads, DistinctBlocks: dineroDistinct, ComputeSec: dineroComputeSec},
		"cscope1":         {Reads: cscope1Reads, DistinctBlocks: cscope1Distinct, ComputeSec: cscope1ComputeSec},
		"cscope2":         {Reads: cscope2Reads, DistinctBlocks: cscope2Distinct, ComputeSec: cscope2ComputeSec},
		"cscope3":         {Reads: cscope3Reads, DistinctBlocks: cscope3Distinct, ComputeSec: cscope3ComputeSec},
		"glimpse":         {Reads: glimpseReads, DistinctBlocks: glimpseDistinct, ComputeSec: glimpseComputeSec},
		"ld":              {Reads: ldReads, DistinctBlocks: ldDistinct, ComputeSec: ldComputeSec},
		"postgres-join":   {Reads: pgJoinReads, DistinctBlocks: pgJoinDistinct, ComputeSec: pgJoinComputeSec},
		"postgres-select": {Reads: pgSelectReads, DistinctBlocks: pgSelectDistinct, ComputeSec: pgSelectComputeSec},
		"xds":             {Reads: xdsReads, DistinctBlocks: xdsDistinct, ComputeSec: xdsComputeSec},
		"synth":           {Reads: synthReads, DistinctBlocks: synthDistinct, ComputeSec: synthComputeSec},
	}
	s, ok := rows[name]
	return s, ok
}

// LargeSpec describes a synthetic streaming trace of arbitrary length:
// references are generated on demand, so a 10^9-reference workload costs
// no memory to produce. Unlike the Table 3 generators above — which
// normalize compute weights post hoc and therefore must materialize —
// large traces draw each compute time directly, keeping generation a
// pure left-to-right stream. The sequence is a deterministic function of
// the spec: Reset replays it exactly.
type LargeSpec struct {
	// Name labels the trace ("large-<pattern>-<refs>" if empty).
	Name string
	// Refs is the total reference count. Required.
	Refs int64
	// Blocks is the block-ID space size. Required (>= 2).
	Blocks int
	// Files splits the block space into this many contiguous files
	// (0 -> 1). Placement is by block number (PlaceByFile false).
	Files int
	// Pattern selects the access pattern: "loop" (default) cycles
	// sequentially through the block space — the steady-fetch worst case
	// for a smaller-than-trace cache — and "zipf" draws blocks from a
	// Zipf(1.2) popularity distribution, the skewed-reuse pattern of
	// storage traces.
	Pattern string
	// MeanComputeMs is the mean inter-reference compute time; draws are
	// exponential (0 -> 0.1 ms).
	MeanComputeMs float64
	// Seed drives all random draws.
	Seed int64
	// CacheBlocks is the trace's default cache size (0 -> 1280).
	CacheBlocks int
}

// Canonical returns the spec with every defaulted field spelled out —
// the name resolved, the pattern, file count, cache size, and mean
// compute filled with the values Source would use. Two specs with equal
// Canonical forms generate identical reference streams, which is what
// lets the serving layer derive one cache key per distinct workload.
func (l LargeSpec) Canonical() LargeSpec {
	c := l
	if c.Pattern == "" {
		c.Pattern = "loop"
	}
	if c.Name == "" {
		c.Name = fmt.Sprintf("large-%s-%d", c.Pattern, c.Refs)
	}
	if c.Files <= 0 {
		c.Files = 1
	}
	if c.CacheBlocks == 0 {
		c.CacheBlocks = defaultCacheBlocks
	}
	if c.MeanComputeMs == 0 { //ppcvet:ignore unset-config sentinel, assigned by the caller rather than computed
		c.MeanComputeMs = 0.1
	}
	return c
}

// ResolvedName returns the trace name Source will report: the explicit
// Name, or the deterministic default derived from pattern and length.
func (l LargeSpec) ResolvedName() string { return l.Canonical().Name }

// ParseLargeSpec parses the CLI shorthand for a large synthetic trace:
// refs[:blocks[:pattern[:seed]]]. The reference count accepts scientific
// notation (1e9) since that is how trace lengths are naturally spoken
// of; blocks defaults to 65536.
func ParseLargeSpec(s string) (LargeSpec, error) {
	parts := strings.Split(s, ":")
	if len(parts) > 4 {
		return LargeSpec{}, fmt.Errorf("large spec %q: want refs[:blocks[:pattern[:seed]]]", s)
	}
	refs, err := strconv.ParseFloat(parts[0], 64)
	if err != nil || refs < 1 || refs != float64(int64(refs)) { //ppcvet:ignore exact integrality check on a parsed count, not simulation time
		return LargeSpec{}, fmt.Errorf("large spec %q: bad reference count %q", s, parts[0])
	}
	spec := LargeSpec{Refs: int64(refs), Blocks: 65536}
	if len(parts) > 1 {
		if spec.Blocks, err = strconv.Atoi(parts[1]); err != nil {
			return LargeSpec{}, fmt.Errorf("large spec %q: bad block count %q", s, parts[1])
		}
	}
	if len(parts) > 2 {
		spec.Pattern = parts[2]
	}
	if len(parts) > 3 {
		if spec.Seed, err = strconv.ParseInt(parts[3], 10, 64); err != nil {
			return LargeSpec{}, fmt.Errorf("large spec %q: bad seed %q", s, parts[3])
		}
	}
	return spec, nil
}

// Validate checks the spec's ranges.
func (l *LargeSpec) Validate() error {
	if l.Refs <= 0 {
		return fmt.Errorf("trace: large spec needs a positive ref count, got %d", l.Refs)
	}
	if l.Blocks < 2 {
		return fmt.Errorf("trace: large spec needs at least 2 blocks, got %d", l.Blocks)
	}
	if l.Files < 0 || l.Files > l.Blocks {
		return fmt.Errorf("trace: large spec file count %d out of [0,%d]", l.Files, l.Blocks)
	}
	switch l.Pattern {
	case "", "loop", "zipf":
	default:
		return fmt.Errorf("trace: unknown large-trace pattern %q (valid: loop, zipf)", l.Pattern)
	}
	if l.MeanComputeMs < 0 || math.IsNaN(l.MeanComputeMs) || math.IsInf(l.MeanComputeMs, 0) {
		return fmt.Errorf("trace: large spec mean compute %g invalid", l.MeanComputeMs)
	}
	return nil
}

// Source returns the streaming generator for the spec.
func (l LargeSpec) Source() (Source, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	c := l.Canonical()
	fs := make([]layout.File, c.Files)
	base, rem := l.Blocks/c.Files, l.Blocks%c.Files
	next := 0
	for i := range fs {
		n := base
		if i < rem {
			n++
		}
		fs[i] = layout.File{First: layout.BlockID(next), Blocks: n}
		next += n
	}
	s := &largeSource{
		spec: l,
		meta: Meta{
			Name:        c.Name,
			Files:       fs,
			CacheBlocks: c.CacheBlocks,
			Refs:        l.Refs,
		},
		pattern: c.Pattern,
		mean:    c.MeanComputeMs,
	}
	if err := s.Reset(); err != nil {
		return nil, err
	}
	return s, nil
}

// largeSource is LargeSpec's deterministic stream.
type largeSource struct {
	spec    LargeSpec
	meta    Meta
	pattern string
	mean    float64
	rng     *rand.Rand
	zipf    *rand.Zipf
	next    int64
}

func (s *largeSource) Meta() Meta { return s.meta }

func (s *largeSource) ReadRefs(p []Ref) (int, error) {
	n := 0
	for n < len(p) && s.next < s.meta.Refs {
		var b int64
		if s.zipf != nil {
			b = int64(s.zipf.Uint64())
		} else {
			b = s.next % int64(s.spec.Blocks)
		}
		p[n] = Ref{
			Block:     layout.BlockID(b),
			ComputeMs: s.rng.ExpFloat64() * s.mean,
		}
		n++
		s.next++
	}
	if s.next == s.meta.Refs {
		return n, io.EOF
	}
	return n, nil
}

// Reset rewinds the stream by recreating the random state, so every pass
// yields the identical sequence.
func (s *largeSource) Reset() error {
	s.rng = rand.New(rand.NewSource(s.spec.Seed ^ 0x6c61726765)) // "large"
	s.zipf = nil
	if s.pattern == "zipf" {
		s.zipf = rand.NewZipf(s.rng, 1.2, 1, uint64(s.spec.Blocks-1))
	}
	s.next = 0
	return nil
}
