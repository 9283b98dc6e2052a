// Package tracetest provides the synthetic-trace builders shared by the
// repository's tests and benchmarks: cached bundled traces, seeded
// random traces, and small deterministic patterns for invariant checks.
// It follows the net/http/httptest convention of a test-support package
// next to the package it supports.
package tracetest

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"ppcsim/internal/layout"
	"ppcsim/internal/trace"
)

var (
	bundledMu sync.Mutex
	bundledBy = map[string]*trace.Trace{}
)

// Bundled returns the named bundled trace (see trace.Names), generating
// it at most once per process. The cached trace is shared: callers must
// not mutate it (Truncate and ScaleCompute copy, so derive instead).
func Bundled(tb testing.TB, name string) *trace.Trace {
	tb.Helper()
	bundledMu.Lock()
	defer bundledMu.Unlock()
	if tr, ok := bundledBy[name]; ok {
		return tr
	}
	tr, err := trace.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	bundledBy[name] = tr
	return tr
}

// Truncated returns the first n references of a bundled trace, sharing
// Bundled's generation cache.
func Truncated(tb testing.TB, name string, n int) *trace.Trace {
	tb.Helper()
	return Bundled(tb, name).Truncate(n)
}

// RandomConfig bounds the traces Random draws. Zero fields take the
// defaults noted on each.
type RandomConfig struct {
	MaxBlocks       int     // block-space upper bound (default 64, min 5)
	MaxRefs         int     // reference-count upper bound (default 512, min 30)
	MaxComputeMs    float64 // per-reference compute upper bound (default 5)
	RandomPlacement bool    // also randomize PlaceByFile
}

// Random draws a valid single-file trace from rng: 5..MaxBlocks blocks,
// 30..MaxRefs uniform references, uniform compute times, and a cache
// size from 2 up to a little beyond the block count (so both thrashing
// and fully-cached regimes occur). Deterministic for a given seed.
func Random(rng *rand.Rand, cfg RandomConfig) *trace.Trace {
	if cfg.MaxBlocks < 5 {
		cfg.MaxBlocks = 64
	}
	if cfg.MaxRefs < 30 {
		cfg.MaxRefs = 512
	}
	if cfg.MaxComputeMs <= 0 {
		cfg.MaxComputeMs = 5
	}
	nBlocks := 5 + rng.Intn(cfg.MaxBlocks-4)
	n := 30 + rng.Intn(cfg.MaxRefs-29)
	tr := &trace.Trace{
		Name:        "random",
		Files:       []layout.File{{First: 0, Blocks: nBlocks}},
		CacheBlocks: 2 + rng.Intn(nBlocks+4),
	}
	if cfg.RandomPlacement {
		tr.PlaceByFile = rng.Intn(2) == 0
	}
	for i := 0; i < n; i++ {
		tr.Refs = append(tr.Refs, trace.Ref{
			Block:     layout.BlockID(rng.Intn(nBlocks)),
			ComputeMs: rng.Float64() * cfg.MaxComputeMs,
		})
	}
	return tr
}

// Loop returns a deterministic trace that cycles through nBlocks blocks
// nRefs times with a fixed compute gap — the classic sequential-reuse
// pattern where prefetching shines and cache-size effects are monotone.
func Loop(name string, nBlocks, nRefs int, computeMs float64) *trace.Trace {
	tr := &trace.Trace{
		Name:        name,
		Files:       []layout.File{{First: 0, Blocks: nBlocks}},
		CacheBlocks: nBlocks,
	}
	for i := 0; i < nRefs; i++ {
		tr.Refs = append(tr.Refs, trace.Ref{
			Block:     layout.BlockID(i % nBlocks),
			ComputeMs: computeMs,
		})
	}
	return tr
}

// Strided returns a deterministic trace touching every stride-th block
// of an nBlocks file, wrapping until nRefs references are issued. With a
// stride coprime to nBlocks this visits the whole file in a
// non-sequential order, defeating naive locality.
func Strided(name string, nBlocks, nRefs, stride int, computeMs float64) *trace.Trace {
	tr := &trace.Trace{
		Name:        name,
		Files:       []layout.File{{First: 0, Blocks: nBlocks}},
		CacheBlocks: nBlocks,
	}
	for i := 0; i < nRefs; i++ {
		tr.Refs = append(tr.Refs, trace.Ref{
			Block:     layout.BlockID((i * stride) % nBlocks),
			ComputeMs: computeMs,
		})
	}
	return tr
}

// Repeat returns tr's reference sequence concatenated k times over the
// same file layout and cache size. The metamorphic duplicated-trace
// invariant compares Repeat(tr, 2) against tr.
func Repeat(tr *trace.Trace, k int) *trace.Trace {
	out := &trace.Trace{
		Name:        fmt.Sprintf("%s-x%d", tr.Name, k),
		Files:       append([]layout.File(nil), tr.Files...),
		PlaceByFile: tr.PlaceByFile,
		CacheBlocks: tr.CacheBlocks,
		Refs:        make([]trace.Ref, 0, k*len(tr.Refs)),
	}
	for i := 0; i < k; i++ {
		out.Refs = append(out.Refs, tr.Refs...)
	}
	return out
}

// OverclaimingColumnar returns a ~100-byte columnar trace whose header
// claims refs references over one two-block file: far more than its
// bytes can encode. It is the hostile input a columnar reader must
// reject before it sizes anything from the claim.
func OverclaimingColumnar(refs uint64) []byte {
	// Magic, empty name, placeByFile 0, cacheBlocks 1, one file of two
	// blocks, then the claim and bytes that look like frames.
	b := append([]byte("ppccolv1"), 0, 0, 1, 1, 2)
	b = binary.AppendUvarint(b, refs)
	return append(b, make([]byte, 80)...)
}
