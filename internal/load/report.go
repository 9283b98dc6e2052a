package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"ppcsim"
)

// ReportVersion is the capacity-report schema version; bump it on any
// incompatible field change so downstream tooling fails loudly.
const ReportVersion = 1

// PhaseReport is one phase's measured outcome.
type PhaseReport struct {
	Name string `json:"name"`
	// OfferedRPS is the schedule's arrival rate; AchievedRPS is what was
	// actually dispatched per wall second (they diverge when the
	// in-flight cap sheds or the run is canceled mid-phase).
	OfferedRPS  float64 `json:"offered_rps"`
	AchievedRPS float64 `json:"achieved_rps"`
	DurationMs  float64 `json:"duration_ms"`
	Mix         Mix     `json:"mix"`
	// Frac429 is rejected/sent over well-formed classes — the
	// backpressure signal ramp mode's onset detection reads.
	Frac429 float64               `json:"frac_429"`
	Classes map[string]ClassStats `json:"classes"`
	Total   ClassStats            `json:"total"`
}

// Saturation is ramp mode's finding: the offered RPS at which 429
// backpressure onset was declared, and the last step that ran clean.
type Saturation struct {
	Found bool `json:"found"`
	// OnsetRPS is the first step whose 429 fraction reached the
	// threshold; MaxCleanRPS is the step before it (0 if the very first
	// step saturated).
	OnsetRPS    float64 `json:"onset_rps,omitempty"`
	MaxCleanRPS float64 `json:"max_clean_rps,omitempty"`
	// Frac429AtOnset is the onset step's measured 429 fraction.
	Frac429AtOnset float64 `json:"frac_429_at_onset,omitempty"`
	// Threshold echoes the onset fraction the detection used.
	Threshold float64 `json:"threshold"`
}

// SLOViolation names one failed objective.
type SLOViolation struct {
	Phase   string  `json:"phase"`
	Class   string  `json:"class,omitempty"`
	Rule    string  `json:"rule"`
	Limit   float64 `json:"limit"`
	Actual  float64 `json:"actual"`
	Message string  `json:"message"`
}

// SLOResult is the run's verdict.
type SLOResult struct {
	Pass       bool           `json:"pass"`
	Violations []SLOViolation `json:"violations,omitempty"`
}

// Report is the LOAD_<n>.json capacity document — the serving analogue
// of the BENCH_<n>.json records. The spec is embedded verbatim, so a
// checked-in report is a reproducible experiment: feed report.Spec back
// through ppc-load -spec and the request stream is byte-identical.
type Report struct {
	Version     int               `json:"version"`
	Tool        string            `json:"tool"`
	Spec        LoadSpec          `json:"spec"`
	Target      string            `json:"target"`
	GoVersion   string            `json:"go_version"`
	GOMAXPROCS  int               `json:"gomaxprocs"`
	Phases      []PhaseReport     `json:"phases"`
	Saturation  *Saturation       `json:"saturation,omitempty"`
	SLO         *SLOResult        `json:"slo,omitempty"`
	Consistency ConsistencyReport `json:"consistency"`
}

// ParseReport decodes a capacity report strictly, rejecting unknown
// fields and version mismatches — the round-trip check the smoke job
// runs on every emitted report.
func ParseReport(data []byte) (*Report, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var r Report
	if err := dec.Decode(&r); err != nil {
		return nil, &ppcsim.ConfigError{Field: "Report", Reason: fmt.Sprintf("bad JSON: %v", err)}
	}
	if dec.More() {
		return nil, &ppcsim.ConfigError{Field: "Report", Reason: "trailing data after JSON document"}
	}
	if r.Version != ReportVersion {
		return nil, &ppcsim.ConfigError{Field: "Report.Version", Reason: fmt.Sprintf("got %d, this tool reads %d", r.Version, ReportVersion)}
	}
	if err := r.Spec.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// EvaluateSLO applies the spec's objectives to the measured phases.
// Latency ceilings are checked per class on every clean phase (one
// whose 429 fraction stayed below the saturation threshold): an
// overloaded step missing latency targets is the expected finding, not
// a breach. A body-consistency mismatch fails the verdict regardless of
// the spec. A nil SLO spec yields a pass verdict that only the
// consistency check can fail.
func EvaluateSLO(spec *LoadSpec, phases []PhaseReport, consistency ConsistencyReport) *SLOResult {
	res := &SLOResult{Pass: true}
	threshold := spec.onset429Fraction()
	slo := spec.SLO
	if slo != nil {
		var errSent, errCount int64
		for _, ph := range phases {
			clean := ph.Frac429 < threshold
			for _, cl := range Classes {
				st, ok := ph.Classes[string(cl)]
				if !ok {
					continue
				}
				errSent += st.Sent
				errCount += st.ServerErrors + st.TransportErrors
				limit, has := slo.P99Ms[string(cl)]
				if !has || !clean || st.Latency.Count == 0 {
					continue
				}
				if st.Latency.P99Ms > limit {
					res.Violations = append(res.Violations, SLOViolation{
						Phase: ph.Name, Class: string(cl), Rule: "p99_ms",
						Limit: limit, Actual: st.Latency.P99Ms,
						Message: fmt.Sprintf("%s: class %s p99 %.3fms exceeds %.3fms", ph.Name, cl, st.Latency.P99Ms, limit),
					})
				}
			}
		}
		if slo.MaxErrorFraction != nil && errSent > 0 {
			frac := float64(errCount) / float64(errSent)
			if frac > *slo.MaxErrorFraction {
				res.Violations = append(res.Violations, SLOViolation{
					Phase: "run", Rule: "max_error_fraction",
					Limit: *slo.MaxErrorFraction, Actual: frac,
					Message: fmt.Sprintf("run error fraction %.4f exceeds %.4f", frac, *slo.MaxErrorFraction),
				})
			}
		}
	}
	if len(consistency.MismatchedKeys) > 0 {
		res.Violations = append(res.Violations, SLOViolation{
			Phase: "run", Rule: "byte_identity",
			Actual:  float64(len(consistency.MismatchedKeys)),
			Message: fmt.Sprintf("%d canonical keys served non-identical bodies", len(consistency.MismatchedKeys)),
		})
	}
	res.Pass = len(res.Violations) == 0
	return res
}

// WriteTable renders the human-readable capacity table.
func WriteTable(w io.Writer, r *Report) {
	fmt.Fprintf(w, "ppc-load %s against %s (seed %d)\n", r.Spec.Mode, r.Target, r.Spec.Seed)
	fmt.Fprintf(w, "%-22s %9s %9s %7s  %8s %8s %8s %8s  %6s %6s %6s\n",
		"phase", "offered", "achieved", "429%", "p50ms", "p95ms", "p99ms", "p999ms", "ok", "rej", "err")
	for _, ph := range r.Phases {
		t := ph.Total
		errs := t.ClientErrors + t.ServerErrors + t.Timeouts + t.TransportErrors
		fmt.Fprintf(w, "%-22s %9.1f %9.1f %6.2f%%  %8.3f %8.3f %8.3f %8.3f  %6d %6d %6d\n",
			ph.Name, ph.OfferedRPS, ph.AchievedRPS, 100*ph.Frac429,
			t.Latency.P50Ms, t.Latency.P95Ms, t.Latency.P99Ms, t.Latency.P999Ms,
			t.OK, t.Rejected, errs)
	}
	if len(r.Phases) > 0 {
		last := r.Phases[len(r.Phases)-1]
		fmt.Fprintf(w, "per-class, final phase (%s):\n", last.Name)
		for _, name := range sortedClassNames(last.Classes) {
			st := last.Classes[name]
			fmt.Fprintf(w, "  %-10s sent %6d  ok %6d  hits %6d  rej %5d  4xx %5d  5xx %4d  tmo %4d  p99 %8.3fms  p999 %8.3fms\n",
				name, st.Sent, st.OK, st.CacheHits, st.Rejected, st.ClientErrors, st.ServerErrors, st.Timeouts,
				st.Latency.P99Ms, st.Latency.P999Ms)
		}
	}
	if s := r.Saturation; s != nil {
		if s.Found {
			fmt.Fprintf(w, "saturation: 429 onset at %.0f RPS (%.1f%% rejected; last clean step %.0f RPS)\n",
				s.OnsetRPS, 100*s.Frac429AtOnset, s.MaxCleanRPS)
		} else {
			fmt.Fprintf(w, "saturation: not reached (ramp exhausted below the %.1f%% onset threshold)\n", 100*s.Threshold)
		}
	}
	fmt.Fprintf(w, "consistency: %s\n", r.Consistency)
	if r.SLO != nil {
		if r.SLO.Pass {
			fmt.Fprintln(w, "SLO verdict: PASS")
		} else {
			fmt.Fprintf(w, "SLO verdict: FAIL (%d violations)\n", len(r.SLO.Violations))
			for _, v := range r.SLO.Violations {
				fmt.Fprintf(w, "  - %s\n", v.Message)
			}
		}
	}
}

// NextReportPath returns the first unused LOAD_<n>.json name in dir,
// matching the BENCH_<n>.json numbering.
func NextReportPath(dir string) string {
	for n := 0; ; n++ {
		path := filepath.Join(dir, fmt.Sprintf("LOAD_%d.json", n))
		if _, err := os.Stat(path); os.IsNotExist(err) {
			return path
		}
	}
}

// sortedClassNames returns the report's class keys in fixed order (for
// renderers that walk the per-class map).
func sortedClassNames(m map[string]ClassStats) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
