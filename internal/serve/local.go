package serve

import (
	"fmt"
	"io"
	"os"

	"ppcsim"
	"ppcsim/internal/serve/tracestore"
	"ppcsim/internal/trace"
)

// ParseTraceSpec turns the command-line shorthand for a synthetic
// streaming trace, refs[:blocks[:pattern[:seed]]], into the wire's
// trace_spec. The shorthand is validated first: on the wire zero blocks
// means 65536, so "2000:0" must fail here rather than run 65536 blocks.
// Failures are *ppcsim.ConfigError values on Trace.
func ParseTraceSpec(s string) (*TraceSpec, error) {
	l, err := trace.ParseLargeSpec(s)
	if err == nil {
		err = l.Validate()
	}
	if err != nil {
		return nil, &ppcsim.ConfigError{Field: "Trace", Reason: err.Error()}
	}
	return &TraceSpec{Name: l.Name, Refs: l.Refs, Blocks: l.Blocks, Files: l.Files,
		Pattern: l.Pattern, MeanComputeMs: l.MeanComputeMs, Seed: l.Seed, CacheBlocks: l.CacheBlocks}, nil
}

// TraceFile is a local columnar trace file, named on the wire by its
// trace-store hash. A command runs it as a trace_hash spec, with
// OpenHash as its SourceEnv.OpenHash, so no trace store is needed.
type TraceFile struct {
	Path string
	Hash string
}

// HashTraceFile reads the file at path to its trace-store hash. A file
// that cannot be read is a *ppcsim.ConfigError on Trace.
func HashTraceFile(path string) (*TraceFile, error) {
	f, err := os.Open(path)
	if err == nil {
		defer f.Close()
		var hash string
		if hash, _, err = tracestore.HashReader(f); err == nil {
			return &TraceFile{Path: path, Hash: hash}, nil
		}
	}
	return nil, &ppcsim.ConfigError{Field: "Trace", Reason: err.Error()}
}

// OpenHash opens the file when hash is its hash, and fails otherwise.
func (f *TraceFile) OpenHash(hash string) (io.ReadSeekCloser, error) {
	if hash != f.Hash {
		return nil, fmt.Errorf("trace %s is not %s", hash, f.Path)
	}
	return os.Open(f.Path)
}
