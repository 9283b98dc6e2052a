package serve

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"ppcsim"
	"ppcsim/internal/serve/tracestore"
)

var (
	bundledMu sync.Mutex
	bundled   = map[string]*ppcsim.Trace{}
)

// FuzzParseOptions throws arbitrary bytes at the full request boundary:
// JSON decoding, field validation, canonical-key construction, and
// option assembly (which ends in ppcsim.Options.Validate and exercises
// ParseAlgorithm/ParseDiscipline). The invariants: never panic, reject
// only with *ppcsim.ConfigError, and anything accepted has a stable
// canonical key and assembles into validated options.
func FuzzParseOptions(f *testing.F) {
	f.Add(`{"trace":"synth","algorithm":"forestall","disks":4,"cache_blocks":100}`)
	f.Add(`{"trace_text":"ppctrace t false 4\nfile 2\nr 0 1\nr 1 0.5\n","algorithm":"demand"}`)
	f.Add(`{"trace":"xds","algorithm":"fixed-horizon","scheduler":"fcfs","hints":{"fraction":0.5,"accuracy":0.9,"seed":7}}`)
	f.Add(`{"trace":"synth","algorithm":"aggressive","disks":0}`)
	f.Add(`{"trace":"synth","algorithm":"fixed-horizon","window":64}`)
	f.Add(`{"trace":"synth","algorithm":"aggressive","window":0}`)
	f.Add(`{"trace":"synth","algorithm":"forestall","window":-3}`)
	f.Add(`{"trace":"synth","algorithm":"reverse-aggressive","window":10}`)
	f.Add(`{"trace":"synth","algorithm":"nope","cache_blocks":-1}`)
	f.Add(`{"algorithm":"demand","timeout_ms":1e300}`)
	f.Add(`{`)
	f.Add(`nullnull`)
	f.Add(``)
	f.Fuzz(func(t *testing.T, body string) {
		req, err := ParseRequest([]byte(body))
		if err != nil {
			var cfgErr *ppcsim.ConfigError
			if !errors.As(err, &cfgErr) {
				t.Fatalf("rejection is not a ConfigError: %T %v", err, err)
			}
			if cfgErr.Field == "" {
				t.Fatalf("ConfigError without a field: %v", err)
			}
			return
		}
		key := req.Key()
		if key == "" {
			t.Fatal("accepted request produced an empty key")
		}
		if key != req.Key() {
			t.Fatal("Key is not deterministic")
		}
		opts, cleanup, err := req.BuildOptions(SourceEnv{LoadTrace: loadBundled})
		if err != nil {
			var cfgErr *ppcsim.ConfigError
			if !errors.As(err, &cfgErr) {
				t.Fatalf("option assembly error is not a ConfigError: %T %v", err, err)
			}
			return
		}
		defer cleanup()
		// BuildOptions promised to finish with Validate; double-check.
		if err := opts.Validate(); err != nil {
			t.Fatalf("assembled options fail validation: %v", err)
		}
	})
}

// FuzzParseRunSpec targets the trace-source surface of the boundary:
// the four mutually exclusive ways a cell names its trace (bundled
// name, inline text, generator spec, store hash) and the streaming
// constraints the latter two add. Invariants: rejections are
// *ppcsim.ConfigError values naming a field; whatever is accepted names
// exactly one source, carries a well-formed hash, keeps generator refs
// inside the engine's int32 budget, and — for streaming sources — has a
// bounded window; option assembly on a worker with no trace store
// fails hash cells with a ConfigError rather than a panic; and an
// accepted generator cell never fails option assembly, because every
// rule that needs only the generator's header fires at parse time.
func FuzzParseRunSpec(f *testing.F) {
	goodHash := strings.Repeat("ab", 32)
	f.Add(`{"trace_spec":{"refs":1000,"blocks":64},"algorithm":"forestall","window":32}`)
	f.Add(`{"trace_spec":{"refs":50000,"blocks":4096,"pattern":"zipf","seed":7},"algorithm":"aggressive","window":128,"disks":2}`)
	f.Add(`{"trace_spec":{"refs":1000},"algorithm":"demand"}`)                                  // no window
	f.Add(`{"trace_spec":{"refs":4294967296,"blocks":64},"algorithm":"demand","window":8}`)     // oversize refs
	f.Add(`{"trace_spec":{"refs":100,"blocks":64},"algorithm":"demand","window":100}`)          // window >= refs
	f.Add(`{"trace_spec":{"refs":100,"blocks":1},"algorithm":"demand","window":8}`)             // bad generator
	f.Add(`{"trace_spec":{"refs":100,"pattern":"walk"},"algorithm":"demand","window":8}`)       // bad pattern
	f.Add(`{"trace_spec":{"refs":1000},"algorithm":"reverse-aggressive","window":32}`)          // offline alg streams
	f.Add(`{"trace_spec":{"refs":1000},"algorithm":"demand","window":32,"cpu_scale":2}`)        // scaling needs materialization
	f.Add(`{"trace":"synth","trace_spec":{"refs":1000},"algorithm":"demand","window":32}`)      // conflict
	f.Add(`{"trace_hash":"` + goodHash + `","trace_text":"x","algorithm":"demand"}`)            // conflict
	f.Add(`{"trace_hash":"` + goodHash + `","algorithm":"forestall","window":64}`)              // well-formed hash
	f.Add(`{"trace_hash":"` + strings.ToUpper(goodHash) + `","algorithm":"demand","window":8}`) // case-sensitive
	f.Add(`{"trace_hash":"abc123","algorithm":"demand","window":8}`)                            // short hash
	f.Add(`{"trace_hash":"zz` + goodHash[2:] + `","algorithm":"demand","window":8}`)            // non-hex
	f.Add(`{"algorithm":"demand","window":8}`)                                                  // no source at all
	f.Fuzz(func(t *testing.T, body string) {
		req, err := ParseRequest([]byte(body))
		if err != nil {
			var cfgErr *ppcsim.ConfigError
			if !errors.As(err, &cfgErr) {
				t.Fatalf("rejection is not a ConfigError: %T %v", err, err)
			}
			if cfgErr.Field == "" {
				t.Fatalf("ConfigError without a field: %v", err)
			}
			return
		}
		sources := 0
		for _, set := range []bool{req.Trace != "", req.TraceText != "", req.TraceSpec != nil, req.TraceHash != ""} {
			if set {
				sources++
			}
		}
		if sources != 1 {
			t.Fatalf("accepted spec names %d trace sources", sources)
		}
		if req.TraceHash != "" && !tracestore.ValidHash(req.TraceHash) {
			t.Fatalf("accepted malformed trace hash %q", req.TraceHash)
		}
		if req.TraceSpec != nil && req.TraceSpec.Refs >= math.MaxInt32 {
			t.Fatalf("accepted %d-ref generator beyond the engine's index budget", req.TraceSpec.Refs)
		}
		if (req.TraceSpec != nil || req.TraceHash != "") && req.Window == nil {
			t.Fatal("accepted a streaming cell without a bounded window")
		}
		if key := req.Key(); key == "" || key != req.Key() {
			t.Fatal("canonical key empty or unstable")
		}
		opts, cleanup, err := req.BuildOptions(SourceEnv{LoadTrace: loadBundled})
		if err != nil {
			cleanup()
			if req.TraceSpec != nil {
				t.Fatalf("accepted generator cell fails option assembly: %v", err)
			}
			var cfgErr *ppcsim.ConfigError
			if !errors.As(err, &cfgErr) {
				t.Fatalf("option assembly error is not a ConfigError: %T %v", err, err)
			}
			return
		}
		defer cleanup()
		if req.TraceHash != "" {
			t.Fatal("hash cell assembled options on a worker with no trace store")
		}
		if req.TraceSpec != nil && opts.Source == nil {
			t.Fatal("generator cell assembled without a streaming source")
		}
		if err := opts.Validate(); err != nil {
			t.Fatalf("assembled options fail validation: %v", err)
		}
	})
}

// loadBundled resolves bundled trace names for the fuzz target without a
// Server (memoized: the generators are deterministic but not free).
func loadBundled(name string) (*ppcsim.Trace, error) {
	bundledMu.Lock()
	defer bundledMu.Unlock()
	if tr, ok := bundled[name]; ok {
		return tr, nil
	}
	tr, err := ppcsim.NewTrace(name)
	if err != nil {
		return nil, err
	}
	bundled[name] = tr
	return tr, nil
}
