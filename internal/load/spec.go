// Package load is the serving stack's load-generation harness: an
// open-loop request scheduler driving the v1 API (ppc-serve, or a
// ppc-coord front end) with a deterministic, seeded mix of request
// classes — warm cache repeats, cold inline ppctrace bodies, base64
// columnar bodies, sweep-grid cells, and malformed requests — while a
// collector tracks per-class latency percentiles, achieved-vs-offered
// RPS, and error/backpressure counts.
//
// Three modes turn the schedule into a capacity measurement:
//
//   - ramp steps the offered RPS upward until 429 backpressure onset,
//     reporting the saturation point;
//   - sweep runs a fixed RPS grid crossed with a mix grid;
//   - burst alternates a low and an overload RPS in a square wave to
//     measure recovery.
//
// Every run emits a versioned capacity report (LOAD_<n>.json, see
// docs/load.md) — the serving analogue of the BENCH_<n>.json records —
// so serving changes are gated on measured saturation and latency
// rather than asserted throughput. The whole request sequence is a pure
// function of the spec (seed included), so two runs of the same spec
// against the same server offer byte-identical request streams.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"ppcsim"
)

// Class names one request population in the generated mix. The classes
// are chosen to exercise every serving path with its own latency
// budget: result-cache hits, fresh simulations from inline text and
// columnar bodies, a finite sweep grid that warms over time, and
// requests the boundary must reject without consuming a worker slot.
type Class string

const (
	// ClassCached repeats requests from a small fixed pool, so after each
	// pool entry's first run every repeat is a result-cache hit.
	ClassCached Class = "cached"
	// ClassCold sends a unique inline ppctrace text body per request:
	// always a cache miss, always a fresh simulation.
	ClassCold Class = "cold"
	// ClassColumnar sends a unique base64-encoded columnar binary trace
	// per request (the docs/trace-format.md wire form).
	ClassColumnar Class = "columnar"
	// ClassSweep cycles through a finite grid of bundled-trace
	// configurations — distinct canonical keys that repeat, like a sweep
	// cluster's cells landing on one worker.
	ClassSweep Class = "sweep"
	// ClassMalformed sends boundary-violating bodies (unknown fields,
	// truncated base64 columnar, oversize trace, bad algorithm name) that
	// must draw a 4xx envelope and never reach the worker pool.
	ClassMalformed Class = "malformed"
)

// Classes lists every request class in the fixed report order.
var Classes = []Class{ClassCached, ClassCold, ClassColumnar, ClassSweep, ClassMalformed}

// Mix holds the relative weights of the request classes. Weights are
// relative (they need not sum to 1); a zero-valued Mix is invalid.
type Mix struct {
	Cached    float64 `json:"cached,omitempty"`
	Cold      float64 `json:"cold,omitempty"`
	Columnar  float64 `json:"columnar,omitempty"`
	Sweep     float64 `json:"sweep,omitempty"`
	Malformed float64 `json:"malformed,omitempty"`
}

// DefaultMix is the standing request mix: mostly warm traffic, a
// quarter fresh simulations, a sliver of hostile bodies — roughly the
// shape a result-cached simulation service sees in steady state.
var DefaultMix = Mix{Cached: 55, Cold: 25, Columnar: 10, Sweep: 8, Malformed: 2}

// Weight returns the weight of one class.
func (m Mix) Weight(c Class) float64 {
	switch c {
	case ClassCached:
		return m.Cached
	case ClassCold:
		return m.Cold
	case ClassColumnar:
		return m.Columnar
	case ClassSweep:
		return m.Sweep
	case ClassMalformed:
		return m.Malformed
	}
	return 0
}

// total returns the sum of all class weights.
func (m Mix) total() float64 {
	var t float64
	for _, c := range Classes {
		t += m.Weight(c)
	}
	return t
}

// validate rejects negative weights and all-zero mixes. field prefixes
// the offending field path in errors (e.g. "Sweep.Mixes[1]").
func (m Mix) validate(field string) error {
	for _, c := range Classes {
		if w := m.Weight(c); w < 0 {
			return &ppcsim.ConfigError{Field: field, Reason: fmt.Sprintf("class %s weight must be non-negative, got %g", c, w)}
		}
	}
	if !(m.total() > 0) {
		return &ppcsim.ConfigError{Field: field, Reason: "at least one class weight must be positive"}
	}
	return nil
}

// RampSpec parameterizes ramp mode: offered RPS starts at StartRPS and
// rises by StepRPS per step of StepSeconds until either the 429
// fraction of a step reaches Onset429Fraction (saturation found) or
// MaxRPS is exceeded.
type RampSpec struct {
	StartRPS    float64 `json:"start_rps"`
	StepRPS     float64 `json:"step_rps"`
	MaxRPS      float64 `json:"max_rps"`
	StepSeconds float64 `json:"step_seconds"`
	// Onset429Fraction is the step-level 429 fraction (rejected /
	// well-formed sent) that declares backpressure onset (default 0.01).
	Onset429Fraction float64 `json:"onset_429_fraction,omitempty"`
}

// SweepSpec parameterizes sweep mode: every RPS point is run once per
// mix for SecondsPerPoint. An empty Mixes list uses the spec's top-level
// mix as the single grid row.
type SweepSpec struct {
	RPS             []float64 `json:"rps"`
	Mixes           []Mix     `json:"mixes,omitempty"`
	SecondsPerPoint float64   `json:"seconds_per_point"`
}

// BurstSpec parameterizes burst mode: Cycles repetitions of a square
// wave holding LowRPS then HighRPS for half of PeriodSeconds each. The
// low half of each cycle doubles as the recovery measurement after the
// preceding overload half.
type BurstSpec struct {
	LowRPS        float64 `json:"low_rps"`
	HighRPS       float64 `json:"high_rps"`
	PeriodSeconds float64 `json:"period_seconds"`
	Cycles        int     `json:"cycles"`
}

// SLOSpec declares the pass/fail objectives evaluated over the whole
// run. Absent fields are not checked.
type SLOSpec struct {
	// P99Ms maps a class name to its p99 latency ceiling in milliseconds,
	// evaluated per phase over phases whose 429 fraction stayed below the
	// saturation threshold (an overloaded step is a finding, not an SLO
	// breach).
	P99Ms map[string]float64 `json:"p99_ms,omitempty"`
	// MaxErrorFraction bounds (server errors + transport errors) /
	// well-formed sent over the whole run.
	MaxErrorFraction *float64 `json:"max_error_fraction,omitempty"`
}

// LoadSpec is the versioned description of one load run: the JSON
// document ppc-load -spec consumes, embedded verbatim in the resulting
// capacity report. See docs/load.md for the field vocabulary.
type LoadSpec struct {
	// Seed drives every random draw: class selection, arrival jitter, and
	// per-request body synthesis. Same seed, same spec → byte-identical
	// request sequence.
	Seed int64 `json:"seed"`
	// Mode selects ramp, sweep, or burst.
	Mode string `json:"mode"`
	// Mix is the request-class mix (default DefaultMix; sweep mode's
	// Mixes grid overrides it per point).
	Mix *Mix `json:"mix,omitempty"`
	// JitterFraction spreads each arrival uniformly within
	// [i·gap, i·gap + JitterFraction·gap) where gap = 1/RPS, keeping
	// arrivals monotone while breaking lockstep (default 0.5; 0 is an
	// exact uniform grid; must stay in [0,1]).
	JitterFraction *float64 `json:"jitter_fraction,omitempty"`
	// MaxInFlight caps concurrently outstanding requests; arrivals past
	// the cap are counted as shed rather than queued, preserving the
	// open-loop property with bounded memory (default 4096).
	MaxInFlight int `json:"max_in_flight,omitempty"`
	// OversizeBytes sizes the malformed "oversize" body; it must exceed
	// the target server's -max-body for that sub-class to draw its 413
	// (default 256 KiB).
	OversizeBytes int `json:"oversize_bytes,omitempty"`
	// ColdRefs is the reference count of each synthesized cold/columnar
	// trace body — the knob trading per-request simulation cost against
	// body size (default 192).
	ColdRefs int `json:"cold_refs,omitempty"`
	// SkipPrime skips the warm-up pass that runs every finite-pool key
	// once before the measured phases. Measured phases then include
	// first-touch compute for the cached and sweep pools — what the
	// serving-invariant test wants, but not what a capacity ramp wants.
	SkipPrime bool `json:"skip_prime,omitempty"`

	Ramp  *RampSpec  `json:"ramp,omitempty"`
	Sweep *SweepSpec `json:"sweep,omitempty"`
	Burst *BurstSpec `json:"burst,omitempty"`
	SLO   *SLOSpec   `json:"slo,omitempty"`
}

// Modes lists the valid LoadSpec.Mode values.
var Modes = []string{"ramp", "sweep", "burst"}

// ParseLoadSpec decodes and validates a LoadSpec document. Decoding is
// strict (unknown fields are rejected, so a typoed knob fails loudly
// instead of running the wrong experiment), and every rejection is a
// *ppcsim.ConfigError naming the offending field — the same diagnostic
// shape the v1 request boundary uses.
func ParseLoadSpec(data []byte) (*LoadSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var spec LoadSpec
	if err := dec.Decode(&spec); err != nil {
		return nil, &ppcsim.ConfigError{Field: "LoadSpec", Reason: fmt.Sprintf("bad JSON: %v", err)}
	}
	if dec.More() {
		return nil, &ppcsim.ConfigError{Field: "LoadSpec", Reason: "trailing data after JSON document"}
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &spec, nil
}

// Validate applies the boundary rules and fills no defaults (defaults
// are resolved by the accessor methods, so the spec echoed into the
// report stays exactly what the user wrote).
func (s *LoadSpec) Validate() error {
	switch s.Mode {
	case "ramp", "sweep", "burst":
	case "":
		return &ppcsim.ConfigError{Field: "Mode", Reason: "mode is required (one of ramp, sweep, burst)"}
	default:
		return &ppcsim.ConfigError{Field: "Mode", Reason: fmt.Sprintf("unknown mode %q (one of ramp, sweep, burst)", s.Mode)}
	}
	if s.Mix != nil {
		if err := s.Mix.validate("Mix"); err != nil {
			return err
		}
	}
	if s.JitterFraction != nil && (*s.JitterFraction < 0 || *s.JitterFraction > 1) {
		return &ppcsim.ConfigError{Field: "JitterFraction", Reason: fmt.Sprintf("must be in [0,1], got %g", *s.JitterFraction)}
	}
	if s.MaxInFlight < 0 {
		return &ppcsim.ConfigError{Field: "MaxInFlight", Reason: fmt.Sprintf("must be non-negative, got %d", s.MaxInFlight)}
	}
	if s.OversizeBytes < 0 {
		return &ppcsim.ConfigError{Field: "OversizeBytes", Reason: fmt.Sprintf("must be non-negative, got %d", s.OversizeBytes)}
	}
	if s.OversizeBytes > 64<<20 {
		return &ppcsim.ConfigError{Field: "OversizeBytes", Reason: fmt.Sprintf("must be at most 64 MiB, got %d", s.OversizeBytes)}
	}
	if s.ColdRefs < 0 {
		return &ppcsim.ConfigError{Field: "ColdRefs", Reason: fmt.Sprintf("must be non-negative, got %d", s.ColdRefs)}
	}
	if s.ColdRefs > 1<<20 {
		return &ppcsim.ConfigError{Field: "ColdRefs", Reason: fmt.Sprintf("must be at most %d, got %d", 1<<20, s.ColdRefs)}
	}
	switch s.Mode {
	case "ramp":
		if s.Ramp == nil {
			return &ppcsim.ConfigError{Field: "Ramp", Reason: "mode ramp requires the ramp block"}
		}
		r := s.Ramp
		if !(r.StartRPS > 0) {
			return &ppcsim.ConfigError{Field: "Ramp.StartRPS", Reason: fmt.Sprintf("must be positive, got %g", r.StartRPS)}
		}
		if !(r.StepRPS > 0) {
			return &ppcsim.ConfigError{Field: "Ramp.StepRPS", Reason: fmt.Sprintf("must be positive, got %g", r.StepRPS)}
		}
		if r.MaxRPS < r.StartRPS {
			return &ppcsim.ConfigError{Field: "Ramp.MaxRPS", Reason: fmt.Sprintf("must be at least start_rps %g, got %g", r.StartRPS, r.MaxRPS)}
		}
		if err := validSeconds("Ramp.StepSeconds", r.StepSeconds); err != nil {
			return err
		}
		if r.Onset429Fraction < 0 || r.Onset429Fraction > 1 {
			return &ppcsim.ConfigError{Field: "Ramp.Onset429Fraction", Reason: fmt.Sprintf("must be in [0,1], got %g", r.Onset429Fraction)}
		}
		if steps := (r.MaxRPS - r.StartRPS) / r.StepRPS; steps > maxPhases {
			return &ppcsim.ConfigError{Field: "Ramp.StepRPS", Reason: fmt.Sprintf("ramp would take %.0f steps (max %d); raise step_rps or lower max_rps", steps+1, maxPhases)}
		}
		if n := r.MaxRPS * r.StepSeconds; n > maxPhaseRequests {
			return &ppcsim.ConfigError{Field: "Ramp.MaxRPS", Reason: fmt.Sprintf("top step pre-generates %.0f requests (max %d); lower max_rps or step_seconds", n, maxPhaseRequests)}
		}
	case "sweep":
		if s.Sweep == nil {
			return &ppcsim.ConfigError{Field: "Sweep", Reason: "mode sweep requires the sweep block"}
		}
		w := s.Sweep
		if len(w.RPS) == 0 {
			return &ppcsim.ConfigError{Field: "Sweep.RPS", Reason: "at least one RPS point is required"}
		}
		for i, r := range w.RPS {
			if !(r > 0) {
				return &ppcsim.ConfigError{Field: fmt.Sprintf("Sweep.RPS[%d]", i), Reason: fmt.Sprintf("must be positive, got %g", r)}
			}
			if r > maxRPS {
				return &ppcsim.ConfigError{Field: fmt.Sprintf("Sweep.RPS[%d]", i), Reason: fmt.Sprintf("must be at most %g, got %g", float64(maxRPS), r)}
			}
			if w.SecondsPerPoint > 0 {
				if n := r * w.SecondsPerPoint; n > maxPhaseRequests {
					return &ppcsim.ConfigError{Field: fmt.Sprintf("Sweep.RPS[%d]", i), Reason: fmt.Sprintf("point pre-generates %.0f requests (max %d); lower rps or seconds_per_point", n, maxPhaseRequests)}
				}
			}
		}
		for i, m := range w.Mixes {
			if err := m.validate(fmt.Sprintf("Sweep.Mixes[%d]", i)); err != nil {
				return err
			}
		}
		if err := validSeconds("Sweep.SecondsPerPoint", w.SecondsPerPoint); err != nil {
			return err
		}
		if pts := len(w.RPS) * max(1, len(w.Mixes)); pts > maxPhases {
			return &ppcsim.ConfigError{Field: "Sweep", Reason: fmt.Sprintf("grid has %d points (max %d)", pts, maxPhases)}
		}
	case "burst":
		if s.Burst == nil {
			return &ppcsim.ConfigError{Field: "Burst", Reason: "mode burst requires the burst block"}
		}
		b := s.Burst
		if !(b.LowRPS > 0) {
			return &ppcsim.ConfigError{Field: "Burst.LowRPS", Reason: fmt.Sprintf("must be positive, got %g", b.LowRPS)}
		}
		if b.HighRPS < b.LowRPS {
			return &ppcsim.ConfigError{Field: "Burst.HighRPS", Reason: fmt.Sprintf("must be at least low_rps %g, got %g", b.LowRPS, b.HighRPS)}
		}
		if b.HighRPS > maxRPS {
			return &ppcsim.ConfigError{Field: "Burst.HighRPS", Reason: fmt.Sprintf("must be at most %g, got %g", float64(maxRPS), b.HighRPS)}
		}
		if err := validSeconds("Burst.PeriodSeconds", b.PeriodSeconds); err != nil {
			return err
		}
		if b.Cycles <= 0 {
			return &ppcsim.ConfigError{Field: "Burst.Cycles", Reason: fmt.Sprintf("must be positive, got %d", b.Cycles)}
		}
		if 2*b.Cycles > maxPhases {
			return &ppcsim.ConfigError{Field: "Burst.Cycles", Reason: fmt.Sprintf("%d cycles is %d phases (max %d)", b.Cycles, 2*b.Cycles, maxPhases)}
		}
		if n := b.HighRPS * b.PeriodSeconds / 2; n > maxPhaseRequests {
			return &ppcsim.ConfigError{Field: "Burst.HighRPS", Reason: fmt.Sprintf("high half-period pre-generates %.0f requests (max %d); lower high_rps or period_seconds", n, maxPhaseRequests)}
		}
	}
	if s.Ramp != nil && s.Mode != "ramp" {
		return &ppcsim.ConfigError{Field: "Ramp", Reason: fmt.Sprintf("ramp block is only valid in mode ramp, not %s", s.Mode)}
	}
	if s.Sweep != nil && s.Mode != "sweep" {
		return &ppcsim.ConfigError{Field: "Sweep", Reason: fmt.Sprintf("sweep block is only valid in mode sweep, not %s", s.Mode)}
	}
	if s.Burst != nil && s.Mode != "burst" {
		return &ppcsim.ConfigError{Field: "Burst", Reason: fmt.Sprintf("burst block is only valid in mode burst, not %s", s.Mode)}
	}
	if s.SLO != nil {
		if err := s.SLO.validate(); err != nil {
			return err
		}
	}
	// Cap the ramp's top end too, now that the block is known valid.
	if s.Mode == "ramp" && s.Ramp.MaxRPS > maxRPS {
		return &ppcsim.ConfigError{Field: "Ramp.MaxRPS", Reason: fmt.Sprintf("must be at most %g, got %g", float64(maxRPS), s.Ramp.MaxRPS)}
	}
	return nil
}

// Generation limits: a phase is fully pre-generated before its clock
// starts (open-loop arrival times must not absorb body-synthesis cost),
// so one phase is bounded to keep memory finite, and a run is bounded
// to a sane phase count.
const (
	maxRPS          = 1_000_000 // offered RPS ceiling per phase
	maxPhases       = 10_000    // phases per run
	maxPhaseSeconds = 3_600     // one phase's duration ceiling
	// maxPhaseRequests bounds RPS×seconds per phase: pre-generated
	// bodies at ~1-4 KiB each keep this under a few GiB even at the cap.
	maxPhaseRequests = 2_000_000
)

func validSeconds(field string, v float64) error {
	if !(v > 0) {
		return &ppcsim.ConfigError{Field: field, Reason: fmt.Sprintf("must be positive, got %g", v)}
	}
	if v > maxPhaseSeconds {
		return &ppcsim.ConfigError{Field: field, Reason: fmt.Sprintf("must be at most %d, got %g", maxPhaseSeconds, v)}
	}
	return nil
}

func (s *SLOSpec) validate() error {
	// Deterministic first-error selection: iterate the map in sorted key
	// order, not map order.
	keys := make([]string, 0, len(s.P99Ms))
	for k := range s.P99Ms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !validClass(k) {
			return &ppcsim.ConfigError{Field: "SLO.P99Ms", Reason: fmt.Sprintf("unknown class %q (one of %v)", k, Classes)}
		}
		if v := s.P99Ms[k]; !(v > 0) {
			return &ppcsim.ConfigError{Field: "SLO.P99Ms", Reason: fmt.Sprintf("class %s ceiling must be positive, got %g", k, v)}
		}
	}
	if s.MaxErrorFraction != nil && (*s.MaxErrorFraction < 0 || *s.MaxErrorFraction > 1) {
		return &ppcsim.ConfigError{Field: "SLO.MaxErrorFraction", Reason: fmt.Sprintf("must be in [0,1], got %g", *s.MaxErrorFraction)}
	}
	return nil
}

func validClass(name string) bool {
	for _, c := range Classes {
		if string(c) == name {
			return true
		}
	}
	return false
}

// Resolved defaults.

func (s *LoadSpec) mix() Mix {
	if s.Mix != nil {
		return *s.Mix
	}
	return DefaultMix
}

func (s *LoadSpec) jitterFraction() float64 {
	if s.JitterFraction != nil {
		return *s.JitterFraction
	}
	return 0.5
}

func (s *LoadSpec) maxInFlight() int {
	if s.MaxInFlight > 0 {
		return s.MaxInFlight
	}
	return 4096
}

func (s *LoadSpec) oversizeBytes() int {
	if s.OversizeBytes > 0 {
		return s.OversizeBytes
	}
	return 256 << 10
}

func (s *LoadSpec) coldRefs() int {
	if s.ColdRefs > 0 {
		return s.ColdRefs
	}
	return 192
}

func (s *LoadSpec) onset429Fraction() float64 {
	if s.Ramp != nil && s.Ramp.Onset429Fraction > 0 {
		return s.Ramp.Onset429Fraction
	}
	return 0.01
}
