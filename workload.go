package ppcsim

import (
	"fmt"
	"math/rand"

	"ppcsim/internal/layout"
	"ppcsim/internal/trace"
)

// FileID names a file created by TraceBuilder.AddFile.
type FileID int

// TraceBuilder constructs custom traces for the simulator, so the library
// can be driven by workloads beyond the ten bundled ones. Files are
// declared first; access-pattern methods then append references, using
// the compute-time distribution in effect at the time of the call.
//
//	b := ppcsim.NewTraceBuilder("mydb")
//	idx := b.AddFile(64)     // a hot index
//	dat := b.AddFile(4096)   // a cold relation
//	b.ComputeExp(2.0)
//	for i := 0; i < 1000; i++ {
//	    b.Sequential(idx, i%64, 1).RandomUniform(dat, 1)
//	}
//	tr, err := b.Build()
type TraceBuilder struct {
	name        string
	files       []layout.File
	refs        []trace.Ref
	rng         *rand.Rand
	compute     func() float64
	cacheBlocks int
	placeByFile bool
	err         error
}

// NewTraceBuilder starts a trace named name, with a fixed 1 ms compute
// time, a 1280-block cache, per-file placement, and a deterministic seed.
func NewTraceBuilder(name string) *TraceBuilder {
	b := &TraceBuilder{
		name:        name,
		rng:         rand.New(rand.NewSource(1)),
		cacheBlocks: 1280,
		placeByFile: true,
	}
	b.compute = func() float64 { return 1.0 }
	return b
}

// Seed reseeds the builder's random source (affects subsequent random
// patterns and compute draws).
func (b *TraceBuilder) Seed(seed int64) *TraceBuilder {
	b.rng = rand.New(rand.NewSource(seed))
	return b
}

// CacheBlocks sets the default cache size of the built trace.
func (b *TraceBuilder) CacheBlocks(k int) *TraceBuilder {
	b.cacheBlocks = k
	return b
}

// PlaceByFile selects per-file random placement (true, the default) or
// direct logical-block placement.
func (b *TraceBuilder) PlaceByFile(v bool) *TraceBuilder {
	b.placeByFile = v
	return b
}

// AddFile declares a file of the given size in 8K blocks and returns its
// id. Files must be declared before they are referenced.
func (b *TraceBuilder) AddFile(blocks int) FileID {
	if blocks <= 0 && b.err == nil {
		b.err = fmt.Errorf("ppcsim: AddFile(%d): size must be positive", blocks)
		return -1
	}
	first := 0
	if n := len(b.files); n > 0 {
		first = int(b.files[n-1].First) + b.files[n-1].Blocks
	}
	b.files = append(b.files, layout.File{First: layout.BlockID(first), Blocks: blocks})
	return FileID(len(b.files) - 1)
}

// ComputeFixed makes subsequent references use a constant inter-reference
// compute time in milliseconds.
func (b *TraceBuilder) ComputeFixed(ms float64) *TraceBuilder {
	if ms < 0 {
		b.fail(fmt.Errorf("ppcsim: ComputeFixed(%g): negative", ms))
		return b
	}
	b.compute = func() float64 { return ms }
	return b
}

// ComputeUniform draws compute times uniformly from [lo, hi) ms.
func (b *TraceBuilder) ComputeUniform(lo, hi float64) *TraceBuilder {
	if lo < 0 || hi < lo {
		b.fail(fmt.Errorf("ppcsim: ComputeUniform(%g, %g): bad range", lo, hi))
		return b
	}
	b.compute = func() float64 { return lo + float64(b.rng.Float64()*(hi-lo)) }
	return b
}

// ComputeExp draws compute times from an exponential distribution with
// the given mean in ms (the distribution of the paper's synth trace).
func (b *TraceBuilder) ComputeExp(mean float64) *TraceBuilder {
	if mean <= 0 {
		b.fail(fmt.Errorf("ppcsim: ComputeExp(%g): mean must be positive", mean))
		return b
	}
	b.compute = func() float64 { return b.rng.ExpFloat64() * mean }
	return b
}

func (b *TraceBuilder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

func (b *TraceBuilder) file(f FileID) (layout.File, bool) {
	if b.err != nil {
		return layout.File{}, false
	}
	if int(f) < 0 || int(f) >= len(b.files) {
		b.fail(fmt.Errorf("ppcsim: unknown file %d", f))
		return layout.File{}, false
	}
	return b.files[f], true
}

func (b *TraceBuilder) add(fl layout.File, offset int) {
	if offset < 0 || offset >= fl.Blocks {
		b.fail(fmt.Errorf("ppcsim: offset %d outside file of %d blocks", offset, fl.Blocks))
		return
	}
	b.refs = append(b.refs, trace.Ref{
		Block:     fl.First + layout.BlockID(offset),
		ComputeMs: b.compute(),
	})
}

// Sequential appends count references reading the file sequentially from
// offset start, wrapping at the end of the file.
func (b *TraceBuilder) Sequential(f FileID, start, count int) *TraceBuilder {
	fl, ok := b.file(f)
	if !ok {
		return b
	}
	if start < 0 || start >= fl.Blocks {
		b.fail(fmt.Errorf("ppcsim: Sequential start %d outside file", start))
		return b
	}
	for i := 0; i < count; i++ {
		b.add(fl, (start+i)%fl.Blocks)
	}
	return b
}

// Loop appends passes full sequential passes over the file.
func (b *TraceBuilder) Loop(f FileID, passes int) *TraceBuilder {
	fl, ok := b.file(f)
	if !ok {
		return b
	}
	return b.Sequential(f, 0, passes*fl.Blocks)
}

// RandomUniform appends count references to uniformly random blocks of
// the file.
func (b *TraceBuilder) RandomUniform(f FileID, count int) *TraceBuilder {
	fl, ok := b.file(f)
	if !ok {
		return b
	}
	for i := 0; i < count; i++ {
		b.add(fl, b.rng.Intn(fl.Blocks))
	}
	return b
}

// Zipf appends count references with a Zipf(s) popularity skew over the
// file's blocks (s > 1; larger s = hotter head).
func (b *TraceBuilder) Zipf(f FileID, count int, s float64) *TraceBuilder {
	fl, ok := b.file(f)
	if !ok {
		return b
	}
	if s <= 1 {
		b.fail(fmt.Errorf("ppcsim: Zipf s=%g must exceed 1", s))
		return b
	}
	z := rand.NewZipf(b.rng, s, 1, uint64(fl.Blocks-1))
	for i := 0; i < count; i++ {
		b.add(fl, int(z.Uint64()))
	}
	return b
}

// Strided appends count references walking the file from start with the
// given stride, wrapping around — the access pattern of a planar slice
// through a volume (the paper's xds workload).
func (b *TraceBuilder) Strided(f FileID, start, stride, count int) *TraceBuilder {
	fl, ok := b.file(f)
	if !ok {
		return b
	}
	if stride == 0 {
		b.fail(fmt.Errorf("ppcsim: Strided stride must be nonzero"))
		return b
	}
	pos := start
	for i := 0; i < count; i++ {
		o := ((pos % fl.Blocks) + fl.Blocks) % fl.Blocks
		b.add(fl, o)
		pos += stride
	}
	return b
}

// WriteSequential appends count write-behind references walking the file
// sequentially from offset start, wrapping at the end. Writes never stall
// the simulated process but compete with reads for disk time.
func (b *TraceBuilder) WriteSequential(f FileID, start, count int) *TraceBuilder {
	fl, ok := b.file(f)
	if !ok {
		return b
	}
	if start < 0 || start >= fl.Blocks {
		b.fail(fmt.Errorf("ppcsim: WriteSequential start %d outside file", start))
		return b
	}
	for i := 0; i < count; i++ {
		o := (start + i) % fl.Blocks
		b.refs = append(b.refs, trace.Ref{
			Block:     fl.First + layout.BlockID(o),
			ComputeMs: b.compute(),
			Write:     true,
		})
	}
	return b
}

// Ref appends one explicit reference with an explicit compute time.
func (b *TraceBuilder) Ref(f FileID, offset int, computeMs float64) *TraceBuilder {
	fl, ok := b.file(f)
	if !ok {
		return b
	}
	if computeMs < 0 {
		b.fail(fmt.Errorf("ppcsim: negative compute %g", computeMs))
		return b
	}
	if offset < 0 || offset >= fl.Blocks {
		b.fail(fmt.Errorf("ppcsim: offset %d outside file of %d blocks", offset, fl.Blocks))
		return b
	}
	b.refs = append(b.refs, trace.Ref{Block: fl.First + layout.BlockID(offset), ComputeMs: computeMs})
	return b
}

// Len returns the number of references appended so far.
func (b *TraceBuilder) Len() int { return len(b.refs) }

// Build validates and returns the trace.
func (b *TraceBuilder) Build() (*Trace, error) {
	if b.err != nil {
		return nil, b.err
	}
	t := &trace.Trace{
		Name:        b.name,
		Refs:        append([]trace.Ref(nil), b.refs...),
		Files:       append([]layout.File(nil), b.files...),
		PlaceByFile: b.placeByFile,
		CacheBlocks: b.cacheBlocks,
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
