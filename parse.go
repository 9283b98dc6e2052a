package ppcsim

import (
	"fmt"
	"math"
	"strings"
)

// ParseAlgorithm converts a user-supplied name (a CLI flag, a config
// value) into an Algorithm, rejecting anything that Run would not
// accept. Matching is case-insensitive and ignores surrounding space.
// Failures are *ConfigError values (field "Algorithm"), so CLI and HTTP
// boundaries report them uniformly with Options.Validate's errors.
func ParseAlgorithm(s string) (Algorithm, error) {
	name := Algorithm(strings.ToLower(strings.TrimSpace(s)))
	for _, a := range Algorithms {
		if name == a {
			return a, nil
		}
	}
	return "", &ConfigError{
		Field:  "Algorithm",
		Reason: fmt.Sprintf("unknown algorithm %q (valid: %s)", s, algorithmNames()),
	}
}

func algorithmNames() string {
	names := make([]string, len(Algorithms))
	for i, a := range Algorithms {
		names[i] = string(a)
	}
	return strings.Join(names, ", ")
}

// ParseDiscipline converts a user-supplied scheduler name ("cscan" or
// "fcfs", case-insensitive) into a Discipline. Failures are *ConfigError
// values (field "Scheduler").
func ParseDiscipline(s string) (Discipline, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "cscan":
		return CSCAN, nil
	case "fcfs":
		return FCFS, nil
	}
	return CSCAN, &ConfigError{
		Field:  "Scheduler",
		Reason: fmt.Sprintf("unknown disk scheduler %q (valid: cscan, fcfs)", s),
	}
}

// ConfigError reports an invalid Options field. Run and Options.Validate
// return it (wrapped in error) so callers can point users at the exact
// field: errors.As(err, &cfgErr) then cfgErr.Field.
type ConfigError struct {
	// Field is the Options field name, e.g. "Disks" (the MultiConfig
	// field name when RunMulti returns it).
	Field string
	// Reason says what is wrong with the value.
	Reason string
}

// Error implements error.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("ppcsim: invalid Options.%s: %s", e.Field, e.Reason)
}

// Validate checks the Options for the errors Run would otherwise surface
// mid-setup, returning a *ConfigError naming the offending field. Run
// calls it first, so callers constructing Options programmatically can
// validate early (e.g. at flag-parsing time) and get the same answer.
func (o Options) Validate() error {
	switch {
	case o.Trace == nil && o.Source == nil:
		return &ConfigError{Field: "Trace", Reason: "required (see NewTrace; or set Source for a streaming run)"}
	case o.Trace != nil && o.Source != nil:
		return &ConfigError{Field: "Source", Reason: "mutually exclusive with Trace"}
	case o.Trace != nil:
		if err := o.Trace.Validate(); err != nil {
			return &ConfigError{Field: "Trace", Reason: err.Error()}
		}
		return o.check(int64(len(o.Trace.Refs)), false)
	}
	m := o.Source.Meta()
	if err := m.Validate(); err != nil {
		return &ConfigError{Field: "Source", Reason: err.Error()}
	}
	return o.check(m.Refs, true)
}

// ValidateUnopened applies the run rules to Options whose trace is not
// open yet, such as a request naming a bundled trace or a stored blob.
// Trace and Source are ignored; stream says whether the run will stream.
// The rules that need the trace's length wait for Validate.
func (o Options) ValidateUnopened(stream bool) error { return o.check(-1, stream) }

// check states every run rule once. refs is the trace's length, or -1
// when it is not open yet; stream says whether the run streams from
// Options.Source rather than materializing the trace.
func (o Options) check(refs int64, stream bool) error {
	opened := refs >= 0
	if opened && refs >= math.MaxInt32 {
		field := "Trace"
		if stream {
			field = "Source"
		}
		return &ConfigError{Field: field, Reason: fmt.Sprintf("trace length %d exceeds the maximum of 2^31-2 references", refs)}
	}
	if stream {
		// A streamed run keeps only a window-sized ring of upcoming
		// references resident, so the offline algorithm cannot run.
		if o.Algorithm == ReverseAggressive {
			return &ConfigError{Field: "Algorithm", Reason: "reverse aggressive is offline and requires a materialized trace (see MaterializeTrace)"}
		}
		if o.Hints == nil || o.Hints.Window == 0 {
			return &ConfigError{Field: "Hints", Reason: "streaming runs require a bounded lookahead window (set Hints with Window > 0 or WindowNone)"}
		}
		if opened && int64(o.Hints.Window) >= refs {
			return &ConfigError{Field: "Hints", Reason: fmt.Sprintf("streaming runs require a window smaller than the trace (window %d, trace %d references)", o.Hints.Window, refs)}
		}
	}
	if o.Algorithm == "" {
		return &ConfigError{Field: "Algorithm", Reason: "required (see Algorithms)"}
	}
	if _, err := ParseAlgorithm(string(o.Algorithm)); err != nil {
		return err
	}
	if o.Disks < 0 {
		return &ConfigError{Field: "Disks", Reason: fmt.Sprintf("must be non-negative, got %d", o.Disks)}
	}
	if o.Scheduler != CSCAN && o.Scheduler != FCFS {
		return &ConfigError{Field: "Scheduler", Reason: fmt.Sprintf("unknown disk scheduler %v (valid: CSCAN, FCFS)", o.Scheduler)}
	}
	if o.CacheBlocks < 0 || o.CacheBlocks == 1 {
		return &ConfigError{Field: "CacheBlocks", Reason: fmt.Sprintf("need at least 2 blocks (0 = trace default), got %d", o.CacheBlocks)}
	}
	if o.BatchSize < 0 {
		return &ConfigError{Field: "BatchSize", Reason: fmt.Sprintf("must be non-negative, got %d", o.BatchSize)}
	}
	if o.Horizon < 0 {
		return &ConfigError{Field: "Horizon", Reason: fmt.Sprintf("must be non-negative, got %d", o.Horizon)}
	}
	if !finite(o.FetchEstimate) || o.FetchEstimate < 0 {
		return &ConfigError{Field: "FetchEstimate", Reason: fmt.Sprintf("must be finite and non-negative, got %g", o.FetchEstimate)}
	}
	if !finite(o.ForestallFixedF) || o.ForestallFixedF < 0 {
		return &ConfigError{Field: "ForestallFixedF", Reason: fmt.Sprintf("must be finite and non-negative, got %g", o.ForestallFixedF)}
	}
	if !finite(o.DriverOverheadMs) {
		return &ConfigError{Field: "DriverOverheadMs", Reason: fmt.Sprintf("must be finite (negative for none), got %g", o.DriverOverheadMs)}
	}
	if o.Hints != nil {
		if err := o.Hints.Validate(); err != nil {
			return &ConfigError{Field: "Hints", Reason: err.Error()}
		}
		if o.Algorithm == ReverseAggressive {
			// Reverse aggressive is offline: it builds its schedule from
			// the whole disclosed sequence up front. A spec is acceptable
			// only when it is information-equivalent to full hints —
			// everything disclosed, everything accurate, and a window that
			// is unlimited or covers the whole trace.
			full := o.Hints.Fraction == 1 && o.Hints.Accuracy == 1 //ppcvet:ignore exact fully-hinted sentinel values, assigned not computed
			if !full || (opened && o.Hints.Window != 0 && int64(o.Hints.Window) < refs) {
				return &ConfigError{Field: "Hints", Reason: "reverse aggressive is offline and requires full hints"}
			}
		}
	}
	if o.DiskGeometry != nil {
		if err := o.DiskGeometry.Validate(); err != nil {
			return &ConfigError{Field: "DiskGeometry", Reason: err.Error()}
		}
	}
	return nil
}

// finite reports whether x is neither NaN nor infinite. A range check
// alone passes NaN, since every comparison with NaN is false.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
