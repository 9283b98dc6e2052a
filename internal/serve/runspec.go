package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"ppcsim"
	"ppcsim/internal/serve/tracestore"
	"ppcsim/internal/trace"
)

// RunSpec describes exactly one simulation in the v1 API's snake_case
// JSON schema. It is the shared request vocabulary: POST /v1/run bodies
// embed it directly (plus a transport-only timeout), and a coordinator
// JobSpec embeds it as the base configuration its grid axes vary.
//
// Exactly one of Trace (a bundled trace name), TraceText (an inline
// trace), TraceSpec (a synthetic streaming generator), or TraceHash (a
// columnar file in the worker's content-addressed trace store) selects
// the workload. TraceText carries either the ppctrace text format (see
// trace.Write) or a base64-encoded columnar binary trace (see
// docs/trace-format.md), told apart by content sniffing on the base64
// prefix of the columnar magic; both hash into the result cache key the
// same way. TraceSpec and TraceHash cells stream — the worker never
// materializes the reference sequence, so a 10^9-reference cell runs
// under a flat memory ceiling — and therefore require a bounded Window
// and an online algorithm. Absent optional fields take the simulator's
// defaults,
// matching ppcsim.Options: zero Disks means one drive, zero CacheBlocks
// means the trace's default size, and zero batch/horizon/estimate
// values mean the paper's Table 6 settings.
type RunSpec struct {
	Trace     string     `json:"trace,omitempty"`
	TraceText string     `json:"trace_text,omitempty"`
	TraceSpec *TraceSpec `json:"trace_spec,omitempty"`
	// TraceHash names a columnar trace by the lowercase hex SHA-256 of
	// its bytes, resolved from the worker's trace store (PUT /v1/traces).
	TraceHash string `json:"trace_hash,omitempty"`
	Algorithm string `json:"algorithm,omitempty"`
	// Disks and CacheBlocks are pointers so the boundary can tell an
	// absent field (use the default) from an explicit zero (an error —
	// a zero-disk array or an empty cache cannot simulate anything).
	Disks            *int    `json:"disks,omitempty"`
	CacheBlocks      *int    `json:"cache_blocks,omitempty"`
	Scheduler        string  `json:"scheduler,omitempty"`
	BatchSize        int     `json:"batch_size,omitempty"`
	Horizon          int     `json:"horizon,omitempty"`
	FetchEstimate    float64 `json:"fetch_estimate,omitempty"`
	ForestallFixedF  float64 `json:"forestall_fixed_f,omitempty"`
	DriverOverheadMs float64 `json:"driver_overhead_ms,omitempty"`
	SimpleDiskModel  bool    `json:"simple_disk_model,omitempty"`
	PlacementSeed    int64   `json:"placement_seed,omitempty"`
	CPUScale         float64 `json:"cpu_scale,omitempty"`
	Hints            *Hints  `json:"hints,omitempty"`
	// Window is the lookahead limit in references: the policy sees hinted
	// references at most window positions past the current one, with
	// eviction falling back to LRU beyond that horizon. A pointer so the
	// boundary can tell an absent field (unlimited lookahead, the paper's
	// setting) from an explicit non-positive value (an error).
	Window *int `json:"window,omitempty"`
}

// Hints mirrors ppcsim.HintSpec in the request schema.
type Hints struct {
	Fraction float64 `json:"fraction"`
	Accuracy float64 `json:"accuracy"`
	Seed     int64   `json:"seed,omitempty"`
}

// TraceSpec mirrors trace.LargeSpec in the request schema: a synthetic
// streaming trace described by its parameters instead of its bytes, so
// a billion-reference workload travels as a few dozen JSON bytes. Zero
// Blocks means 65536 (the CLI shorthand's default); the remaining
// defaults match trace.LargeSpec (pattern "loop", one file, 1280 cache
// blocks, 0.1 ms mean compute).
type TraceSpec struct {
	Name          string  `json:"name,omitempty"`
	Refs          int64   `json:"refs"`
	Blocks        int     `json:"blocks,omitempty"`
	Files         int     `json:"files,omitempty"`
	Pattern       string  `json:"pattern,omitempty"`
	MeanComputeMs float64 `json:"mean_compute_ms,omitempty"`
	Seed          int64   `json:"seed,omitempty"`
	CacheBlocks   int     `json:"cache_blocks,omitempty"`
}

// large converts the wire shape to the generator spec, applying the
// wire-level blocks default.
func (t *TraceSpec) large() trace.LargeSpec {
	l := trace.LargeSpec{
		Name:          t.Name,
		Refs:          t.Refs,
		Blocks:        t.Blocks,
		Files:         t.Files,
		Pattern:       t.Pattern,
		MeanComputeMs: t.MeanComputeMs,
		Seed:          t.Seed,
		CacheBlocks:   t.CacheBlocks,
	}
	if l.Blocks == 0 {
		l.Blocks = 65536
	}
	return l
}

// ResolvedName returns the trace name the run will report — the
// explicit Name or the generator's deterministic default — which is the
// name that appears in Result JSON and CSV trace columns.
func (t *TraceSpec) ResolvedName() string { return t.large().ResolvedName() }

// streaming reports whether the spec names a source the worker streams
// (generator or store hash) rather than materializes.
func (r *RunSpec) streaming() bool { return r.TraceSpec != nil || r.TraceHash != "" }

// Validate checks the spec before any trace is resolved. It states only
// the wire rules: one trace source, the hash syntax, explicit
// non-positive disks, cache_blocks and window, and a negative or
// non-finite cpu_scale. The run
// rules come from ppcsim through options, the trace-free half of option
// assembly. Failures are *ppcsim.ConfigError values naming the field.
func (r *RunSpec) Validate() error {
	sources := 0
	for _, set := range []bool{r.Trace != "", r.TraceText != "", r.TraceSpec != nil, r.TraceHash != ""} {
		if set {
			sources++
		}
	}
	switch {
	case sources == 0:
		return &ppcsim.ConfigError{Field: "Trace", Reason: "one of trace, trace_text, trace_spec, or trace_hash is required"}
	case sources > 1:
		return &ppcsim.ConfigError{Field: "Trace", Reason: "trace, trace_text, trace_spec, and trace_hash are mutually exclusive"}
	}
	if r.TraceHash != "" && !tracestore.ValidHash(r.TraceHash) {
		return &ppcsim.ConfigError{Field: "TraceHash", Reason: fmt.Sprintf("%q is not a trace hash (want 64 lowercase hex digits)", r.TraceHash)}
	}
	if r.Disks != nil && *r.Disks <= 0 {
		return &ppcsim.ConfigError{Field: "Disks", Reason: fmt.Sprintf("must be positive, got %d", *r.Disks)}
	}
	if r.CacheBlocks != nil && *r.CacheBlocks <= 0 {
		return &ppcsim.ConfigError{Field: "CacheBlocks", Reason: fmt.Sprintf("must be positive, got %d", *r.CacheBlocks)}
	}
	if r.Window != nil && *r.Window <= 0 {
		return &ppcsim.ConfigError{Field: "Window", Reason: fmt.Sprintf("must be positive, got %d (omit the field for unlimited lookahead)", *r.Window)}
	}
	if r.CPUScale < 0 || math.IsNaN(r.CPUScale) || math.IsInf(r.CPUScale, 0) {
		return &ppcsim.ConfigError{Field: "CPUScale", Reason: fmt.Sprintf("must be finite and non-negative, got %g", r.CPUScale)}
	}
	if r.streaming() && r.scaled() {
		return &ppcsim.ConfigError{Field: "CPUScale", Reason: "cpu_scale requires a materialized trace"}
	}
	opts, err := r.options()
	if err != nil {
		return err
	}
	if opts.Source != nil {
		return opts.Validate()
	}
	return opts.ValidateUnopened(r.streaming())
}

// scaled reports whether the spec rescales compute times.
func (r *RunSpec) scaled() bool {
	return r.CPUScale != 0 && r.CPUScale != 1 //ppcvet:ignore unset-field sentinels, decoded rather than computed
}

// canonical is the deterministic cache-key shape: every option that
// changes the simulation's outcome, with defaults filled in, and inline
// traces replaced by a content hash. Transport-only fields (timeout_ms)
// are deliberately absent.
type canonical struct {
	Trace     string `json:"t,omitempty"`
	TraceHash string `json:"th,omitempty"`
	// TraceSpec carries generator cells with every default spelled out
	// (resolved name included — the name appears in Result JSON, so two
	// specs differing only in Name must key differently); TraceFile
	// carries store-hash cells. Inline trace_text bodies keep hashing
	// into TraceHash exactly as before, so pre-existing keys are stable.
	TraceSpec        *canonicalTraceSpec `json:"tg,omitempty"`
	TraceFile        string              `json:"tf,omitempty"`
	Algorithm        string              `json:"a"`
	Disks            int                 `json:"d"`
	CacheBlocks      int                 `json:"c"`
	Scheduler        string              `json:"s"`
	BatchSize        int                 `json:"b"`
	Horizon          int                 `json:"h"`
	FetchEstimate    float64             `json:"f"`
	ForestallFixedF  float64             `json:"ff"`
	DriverOverheadMs float64             `json:"dr"`
	SimpleDiskModel  bool                `json:"sd"`
	PlacementSeed    int64               `json:"ps"`
	CPUScale         float64             `json:"cs"`
	Hints            *Hints              `json:"hi,omitempty"`
	Window           int                 `json:"w,omitempty"`
}

// canonicalTraceSpec is the cache-key projection of a generator cell:
// trace.LargeSpec.Canonical with fixed short field names.
type canonicalTraceSpec struct {
	Name          string  `json:"n"`
	Refs          int64   `json:"r"`
	Blocks        int     `json:"b"`
	Files         int     `json:"fi"`
	Pattern       string  `json:"p"`
	MeanComputeMs float64 `json:"m"`
	Seed          int64   `json:"se"`
	CacheBlocks   int     `json:"cb"`
}

// Key returns the canonical result-cache key of a validated spec.
//
// Derivation (documented because sharding depends on it): the spec is
// projected onto the canonical struct above — defaults spelled out
// (disks 1, scheduler cscan, cpu_scale 1, -0 as 0), the algorithm name
// normalized through ParseAlgorithm, and an inline trace replaced by
// the hex SHA-256 of its text — then JSON-marshaled with fixed field
// order. Equal keys therefore mean runs with byte-identical Result
// JSON (the simulator is deterministic), so worker result caches,
// singleflight deduplication, and the coordinator's consistent-hash
// cell routing all hang off this one string: a cell is routed by its
// Key, and the worker that runs it caches it under the same Key, so
// the cluster-wide cache partitions by construction instead of
// duplicating.
func (r *RunSpec) Key() string {
	c := canonical{
		Trace:            r.Trace,
		Algorithm:        r.Algorithm,
		Disks:            1,
		Scheduler:        "cscan",
		BatchSize:        r.BatchSize,
		Horizon:          r.Horizon,
		FetchEstimate:    unsignedZero(r.FetchEstimate),
		ForestallFixedF:  unsignedZero(r.ForestallFixedF),
		DriverOverheadMs: unsignedZero(r.DriverOverheadMs),
		SimpleDiskModel:  r.SimpleDiskModel,
		PlacementSeed:    r.PlacementSeed,
		CPUScale:         1,
		Hints:            r.Hints,
	}
	if a, err := ppcsim.ParseAlgorithm(r.Algorithm); err == nil {
		c.Algorithm = string(a) // normalized case/space form
	}
	if r.TraceText != "" {
		sum := sha256.Sum256([]byte(r.TraceText))
		c.Trace, c.TraceHash = "", hex.EncodeToString(sum[:])
	}
	if r.TraceSpec != nil {
		ls := r.TraceSpec.large().Canonical()
		c.TraceSpec = &canonicalTraceSpec{
			Name:          ls.Name,
			Refs:          ls.Refs,
			Blocks:        ls.Blocks,
			Files:         ls.Files,
			Pattern:       ls.Pattern,
			MeanComputeMs: ls.MeanComputeMs,
			Seed:          ls.Seed,
			CacheBlocks:   ls.CacheBlocks,
		}
	}
	if r.TraceHash != "" {
		c.TraceFile = r.TraceHash
	}
	if r.Disks != nil {
		c.Disks = *r.Disks
	}
	if r.CacheBlocks != nil {
		c.CacheBlocks = *r.CacheBlocks
	}
	if r.Scheduler != "" {
		if d, err := ppcsim.ParseDiscipline(r.Scheduler); err == nil && d == ppcsim.FCFS {
			c.Scheduler = "fcfs"
		}
	}
	if r.CPUScale != 0 { //ppcvet:ignore unset-field sentinel, decoded rather than computed
		c.CPUScale = r.CPUScale
	}
	if r.Window != nil {
		c.Window = *r.Window
	}
	key, err := json.Marshal(c)
	if err != nil {
		// canonical contains only marshalable field types; unreachable.
		panic(err)
	}
	return string(key)
}

// unsignedZero maps -0 to 0. Encoding a spec drops an omitempty field
// holding -0, so a worker that decodes the body reads 0; a coordinator
// that keys the spec it encoded must derive the worker's key.
func unsignedZero(x float64) float64 {
	if x == 0 { //ppcvet:ignore exact zero test: -0 and 0 compare equal, which is the point
		return 0
	}
	return x
}

// SourceEnv supplies the worker-local resources BuildOptions resolves
// traces through: LoadTrace maps bundled trace names (and may cache),
// OpenHash opens a pinned read handle on a store blob (nil when the
// worker has no trace store).
type SourceEnv struct {
	LoadTrace func(name string) (*ppcsim.Trace, error)
	OpenHash  func(hash string) (io.ReadSeekCloser, error)
}

// BuildOptions assembles the validated spec into simulator options,
// resolving the trace through env. The returned cleanup func (never
// nil) releases whatever the source holds — a store pin, most
// importantly — and must be called after the run finishes.
//
// Trace-source routing: trace_spec cells stream from the generator,
// trace_hash cells stream from the store blob, and inline columnar
// trace_text bodies open one ColumnarSource over the decoded bytes and
// stream it when the run is windowed, unscaled and its window is shorter
// than the trace (what the sliding-window engine requires); otherwise
// they materialize it, which is byte-identical. Text traces and bundled
// names materialize. It finishes with ppcsim.Options.Validate, so every
// configuration error the library can diagnose surfaces here as a
// *ppcsim.ConfigError before any queue slot is consumed.
func (r *RunSpec) BuildOptions(env SourceEnv) (ppcsim.Options, func(), error) {
	cleanup := func() {}
	opts, err := r.options()
	if err != nil {
		return ppcsim.Options{}, cleanup, err
	}
	switch {
	case opts.Source != nil:
		// A trace_spec cell: options attached its generator.
	case r.TraceHash != "":
		if env.OpenHash == nil {
			return ppcsim.Options{}, cleanup, &ppcsim.ConfigError{Field: "TraceHash", Reason: "this worker has no trace store"}
		}
		h, herr := env.OpenHash(r.TraceHash)
		if herr != nil {
			return ppcsim.Options{}, cleanup, &ppcsim.ConfigError{Field: "TraceHash", Reason: herr.Error()}
		}
		opts.Source, err = trace.NewColumnarSource(h)
		if err != nil {
			h.Close()
			return ppcsim.Options{}, cleanup, &ppcsim.ConfigError{Field: "TraceHash", Reason: fmt.Sprintf("stored trace %s: %v", r.TraceHash, err)}
		}
		cleanup = func() { h.Close() }
	case r.TraceText != "":
		if strings.HasPrefix(r.TraceText, trace.ColumnarBase64Prefix) {
			// A base64-encoded columnar binary trace: no text trace can
			// start with this prefix (text headers start with "ppctrace ").
			raw, derr := base64.StdEncoding.DecodeString(r.TraceText)
			if derr != nil {
				return ppcsim.Options{}, cleanup, &ppcsim.ConfigError{Field: "TraceText", Reason: fmt.Sprintf("columnar body is not valid base64: %v", derr)}
			}
			var s *trace.ColumnarSource
			if s, err = trace.NewColumnarSource(bytes.NewReader(raw)); err == nil {
				if r.Window != nil && !r.scaled() && int64(*r.Window) < s.Meta().Refs {
					opts.Source = s
				} else {
					// The sliding-window engine needs a window shorter
					// than the trace and cannot scale compute;
					// materializing is byte-identical.
					opts.Trace, err = trace.Materialize(s)
				}
			}
		} else {
			opts.Trace, err = trace.Read(strings.NewReader(r.TraceText))
		}
		if err != nil {
			return ppcsim.Options{}, cleanup, &ppcsim.ConfigError{Field: "TraceText", Reason: err.Error()}
		}
	default:
		opts.Trace, err = env.LoadTrace(r.Trace)
		if err != nil {
			return ppcsim.Options{}, cleanup, &ppcsim.ConfigError{Field: "Trace", Reason: err.Error()}
		}
	}
	if opts.Trace != nil && r.scaled() {
		opts.Trace = opts.Trace.ScaleCompute(r.CPUScale)
	}
	if err := opts.Validate(); err != nil {
		cleanup()
		return ppcsim.Options{}, func() {}, err
	}
	return opts, cleanup, nil
}

// options is the trace-free half of option assembly, shared by Validate
// and BuildOptions: every Options field but the trace, plus the
// generator source of a trace_spec cell, which costs O(files) to build
// and generates no references until the run reads them.
func (r *RunSpec) options() (ppcsim.Options, error) {
	var src ppcsim.TraceSource
	if r.TraceSpec != nil {
		var err error
		if src, err = r.TraceSpec.large().Source(); err != nil {
			return ppcsim.Options{}, &ppcsim.ConfigError{Field: "TraceSpec", Reason: err.Error()}
		}
	}
	alg, err := ppcsim.ParseAlgorithm(r.Algorithm)
	if err != nil {
		return ppcsim.Options{}, err
	}
	opts := ppcsim.Options{
		Source:           src,
		Algorithm:        alg,
		BatchSize:        r.BatchSize,
		Horizon:          r.Horizon,
		FetchEstimate:    r.FetchEstimate,
		ForestallFixedF:  r.ForestallFixedF,
		DriverOverheadMs: r.DriverOverheadMs,
		SimpleDiskModel:  r.SimpleDiskModel,
		PlacementSeed:    r.PlacementSeed,
	}
	if r.Scheduler != "" {
		if opts.Scheduler, err = ppcsim.ParseDiscipline(r.Scheduler); err != nil {
			return ppcsim.Options{}, err
		}
	}
	if r.Disks != nil {
		opts.Disks = *r.Disks
	}
	if r.CacheBlocks != nil {
		opts.CacheBlocks = *r.CacheBlocks
	}
	if r.Hints != nil {
		opts.Hints = &ppcsim.HintSpec{
			Fraction: r.Hints.Fraction,
			Accuracy: r.Hints.Accuracy,
			Seed:     r.Hints.Seed,
		}
	}
	if r.Window != nil {
		if opts.Hints == nil {
			// A bare window means fully-disclosed, accurate hints limited
			// in reach — the TIP2-style partial-knowledge setting.
			opts.Hints = &ppcsim.HintSpec{Fraction: 1, Accuracy: 1}
		}
		opts.Hints.Window = *r.Window
	}
	return opts, nil
}
