package trace

import (
	"fmt"
	"io"

	"ppcsim/internal/layout"
)

// Meta is the trace-level description a streaming Source carries: the
// fields of Trace minus the reference slice, plus the total reference
// count. It is everything the engine needs before consuming a single
// reference — block-ID space, placement policy, cache default — so a
// 10^9-reference trace's metadata stays a few hundred bytes.
type Meta struct {
	Name string
	// Files describes the (file, offset) structure, exactly as in
	// Trace.Files: blocks numbered contiguously file by file.
	Files []layout.File
	// PlaceByFile selects the per-file random-start placement.
	PlaceByFile bool
	// CacheBlocks is the trace's default cache size.
	CacheBlocks int
	// Refs is the total number of references the source will yield.
	Refs int64
}

// NumBlocks returns the size of the block-ID space, as Trace.NumBlocks.
func (m Meta) NumBlocks() int {
	n := 0
	for _, f := range m.Files {
		n += f.Blocks
	}
	return n
}

// Layout places the trace's blocks on a disk array, as Trace.Layout.
func (m Meta) Layout(disks int, seed int64) (*layout.Layout, error) {
	if m.PlaceByFile {
		return layout.NewFiles(m.Files, disks, seed)
	}
	return layout.New(m.NumBlocks(), disks)
}

// Validate checks the structural invariants Trace.Validate checks on the
// header fields: contiguous non-empty files and a positive reference
// count. Per-reference invariants (block range, finite compute) are
// checked by the consumer as references stream by.
func (m Meta) Validate() error {
	if m.Refs <= 0 {
		return fmt.Errorf("trace %q: empty", m.Name)
	}
	n := 0
	for i, f := range m.Files {
		if f.Blocks <= 0 {
			return fmt.Errorf("trace %q: file %d has size %d", m.Name, i, f.Blocks)
		}
		if int(f.First) != n {
			return fmt.Errorf("trace %q: file %d not contiguous", m.Name, i)
		}
		n += f.Blocks
	}
	if n == 0 {
		return fmt.Errorf("trace %q: no files", m.Name)
	}
	return nil
}

// Source is a streaming trace: references arrive in order through
// ReadRefs and only a caller-chosen window of them is ever resident.
// It is the abstraction the engine consumes for traces too large to
// materialize — a columnar file, a synthetic generator, or a plain
// *Trace (see Trace.Source).
//
// ReadRefs follows io.Reader conventions: it fills p with the next
// references in trace order, returns how many it wrote, and returns
// io.EOF (possibly alongside n > 0) once the sequence is exhausted.
// The source must yield exactly Meta().Refs references before EOF.
// Reset rewinds to the first reference; sources are single-goroutine.
type Source interface {
	Meta() Meta
	ReadRefs(p []Ref) (int, error)
	Reset() error
}

// sliceSource streams a materialized reference slice.
type sliceSource struct {
	meta Meta
	refs []Ref
	next int
}

// Source returns a streaming view of the trace. The source aliases the
// trace's slices; it never mutates them.
func (t *Trace) Source() Source {
	return &sliceSource{
		meta: Meta{
			Name:        t.Name,
			Files:       t.Files,
			PlaceByFile: t.PlaceByFile,
			CacheBlocks: t.CacheBlocks,
			Refs:        int64(len(t.Refs)),
		},
		refs: t.Refs,
	}
}

func (s *sliceSource) Meta() Meta { return s.meta }

func (s *sliceSource) ReadRefs(p []Ref) (int, error) {
	if s.next >= len(s.refs) {
		return 0, io.EOF
	}
	n := copy(p, s.refs[s.next:])
	s.next += n
	if s.next == len(s.refs) {
		return n, io.EOF
	}
	return n, nil
}

func (s *sliceSource) Reset() error {
	s.next = 0
	return nil
}

// Materialize drains a source into a fully resident *Trace, validating
// the result. It resets the source first, so a partially consumed source
// still materializes completely.
func Materialize(src Source) (*Trace, error) {
	if err := src.Reset(); err != nil {
		return nil, err
	}
	m := src.Meta()
	if err := m.Validate(); err != nil {
		return nil, err
	}
	t := &Trace{
		Name:        m.Name,
		Files:       append([]layout.File(nil), m.Files...),
		PlaceByFile: m.PlaceByFile,
		CacheBlocks: m.CacheBlocks,
		Refs:        make([]Ref, 0, m.Refs),
	}
	buf := make([]Ref, min(4096, m.Refs))
	for {
		n, err := src.ReadRefs(buf)
		t.Refs = append(t.Refs, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace %q: source read: %w", m.Name, err)
		}
		if n == 0 {
			return nil, fmt.Errorf("trace %q: source returned no references and no error", m.Name)
		}
	}
	if int64(len(t.Refs)) != m.Refs {
		return nil, fmt.Errorf("trace %q: source yielded %d references, metadata promises %d", m.Name, len(t.Refs), m.Refs)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
