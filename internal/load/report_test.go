package load

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func rampSpecForTest() *LoadSpec {
	return &LoadSpec{
		Seed: 1,
		Mode: "ramp",
		Ramp: &RampSpec{StartRPS: 100, StepRPS: 100, MaxRPS: 300, StepSeconds: 1},
	}
}

func phaseWith(name string, frac429 float64, classes map[string]ClassStats) PhaseReport {
	return PhaseReport{Name: name, OfferedRPS: 100, AchievedRPS: 99, Mix: DefaultMix, Frac429: frac429, Classes: classes}
}

// TestReportRoundTrip writes a report and re-parses it strictly.
func TestReportRoundTrip(t *testing.T) {
	rep := &Report{
		Version:    ReportVersion,
		Tool:       "ppc-load",
		Spec:       *rampSpecForTest(),
		Target:     "embedded",
		GoVersion:  "go0.0",
		GOMAXPROCS: 4,
		Phases: []PhaseReport{phaseWith("ramp@100rps", 0, map[string]ClassStats{
			"cached": {Sent: 10, OK: 10, CacheHits: 9, Latency: LatencySummary{Count: 10, P99Ms: 1}},
		})},
		Saturation:  &Saturation{Found: true, OnsetRPS: 200, MaxCleanRPS: 100, Frac429AtOnset: 0.02, Threshold: 0.01},
		SLO:         &SLOResult{Pass: true},
		Consistency: ConsistencyReport{CheckedBodies: 10, DistinctKeys: 3},
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseReport(raw)
	if err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if back.Saturation == nil || back.Saturation.OnsetRPS != 200 {
		t.Fatalf("saturation lost: %+v", back.Saturation)
	}
	if back.Spec.Mode != "ramp" {
		t.Fatalf("spec lost: %+v", back.Spec)
	}
}

// TestParseReportRejects covers the strict-decoding boundary.
func TestParseReportRejects(t *testing.T) {
	good, _ := json.Marshal(&Report{Version: ReportVersion, Tool: "ppc-load", Spec: *rampSpecForTest(), Target: "t"})
	for name, raw := range map[string][]byte{
		"unknown field":    []byte(`{"version":1,"bogus":true}`),
		"version mismatch": []byte(`{"version":99,"tool":"ppc-load","spec":{"seed":1,"mode":"ramp","ramp":{"start_rps":1,"step_rps":1,"max_rps":2,"step_seconds":1}},"target":"t","go_version":"g","gomaxprocs":1,"phases":null,"consistency":{"checked_bodies":0,"distinct_keys":0}}`),
		"invalid spec":     bytes.Replace(good, []byte(`"mode":"ramp"`), []byte(`"mode":"nope"`), 1),
		"trailing":         append(append([]byte{}, good...), []byte(" 1")...),
	} {
		if _, err := ParseReport(raw); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := ParseReport(good); err != nil {
		t.Fatalf("good report rejected: %v", err)
	}
}

// TestEvaluateSLOCleanPhaseViolation: a p99 ceiling broken on a clean
// phase is a violation.
func TestEvaluateSLOCleanPhaseViolation(t *testing.T) {
	spec := rampSpecForTest()
	spec.SLO = &SLOSpec{P99Ms: map[string]float64{"cached": 5}}
	phases := []PhaseReport{phaseWith("p0", 0, map[string]ClassStats{
		"cached": {Sent: 100, OK: 100, Latency: LatencySummary{Count: 100, P99Ms: 9}},
	})}
	res := EvaluateSLO(spec, phases, ConsistencyReport{})
	if res.Pass || len(res.Violations) != 1 {
		t.Fatalf("verdict = %+v", res)
	}
	v := res.Violations[0]
	if v.Rule != "p99_ms" || v.Class != "cached" || v.Limit != 5 || v.Actual != 9 {
		t.Fatalf("violation = %+v", v)
	}
}

// TestEvaluateSLOSkipsSaturatedPhases: the same breach on an
// overloaded step (429 fraction at/above threshold) is a finding, not
// an SLO failure.
func TestEvaluateSLOSkipsSaturatedPhases(t *testing.T) {
	spec := rampSpecForTest()
	spec.SLO = &SLOSpec{P99Ms: map[string]float64{"cached": 5}}
	phases := []PhaseReport{phaseWith("p0", 0.5, map[string]ClassStats{
		"cached": {Sent: 100, OK: 40, Rejected: 60, Latency: LatencySummary{Count: 100, P99Ms: 50}},
	})}
	res := EvaluateSLO(spec, phases, ConsistencyReport{})
	if !res.Pass {
		t.Fatalf("saturated phase counted against the SLO: %+v", res.Violations)
	}
}

// TestEvaluateSLOErrorFraction is run-wide over well-formed sent.
func TestEvaluateSLOErrorFraction(t *testing.T) {
	spec := rampSpecForTest()
	spec.SLO = &SLOSpec{MaxErrorFraction: floatp(0.05)}
	phases := []PhaseReport{phaseWith("p0", 0, map[string]ClassStats{
		"cold": {Sent: 100, OK: 90, ServerErrors: 6, TransportErrors: 4},
	})}
	res := EvaluateSLO(spec, phases, ConsistencyReport{})
	if res.Pass || len(res.Violations) != 1 || res.Violations[0].Rule != "max_error_fraction" {
		t.Fatalf("verdict = %+v", res)
	}
	// 429s and 4xx are not errors under this rule.
	phases = []PhaseReport{phaseWith("p0", 0, map[string]ClassStats{
		"cold": {Sent: 100, OK: 40, Rejected: 50, ClientErrors: 10},
	})}
	if res := EvaluateSLO(spec, phases, ConsistencyReport{}); !res.Pass {
		t.Fatalf("backpressure counted as errors: %+v", res.Violations)
	}
}

// TestEvaluateSLOByteIdentityAlwaysFails: a consistency mismatch fails
// the verdict even with no SLO spec at all.
func TestEvaluateSLOByteIdentityAlwaysFails(t *testing.T) {
	res := EvaluateSLO(rampSpecForTest(), nil, ConsistencyReport{CheckedBodies: 2, DistinctKeys: 1, MismatchedKeys: []string{"k"}})
	if res.Pass || len(res.Violations) != 1 || res.Violations[0].Rule != "byte_identity" {
		t.Fatalf("verdict = %+v", res)
	}
	if res := EvaluateSLO(rampSpecForTest(), nil, ConsistencyReport{}); !res.Pass {
		t.Fatalf("nil SLO with clean consistency should pass: %+v", res.Violations)
	}
}

// TestWriteTableRendersEverySection smoke-checks the human table.
func TestWriteTableRendersEverySection(t *testing.T) {
	rep := &Report{
		Version: ReportVersion, Tool: "ppc-load", Spec: *rampSpecForTest(), Target: "embedded",
		Phases: []PhaseReport{phaseWith("ramp@100rps", 0, map[string]ClassStats{
			"cached": {Sent: 5, OK: 5}, "malformed": {Sent: 1, ClientErrors: 1},
		})},
		Saturation:  &Saturation{Found: true, OnsetRPS: 200, MaxCleanRPS: 100, Threshold: 0.01},
		SLO:         &SLOResult{Pass: false, Violations: []SLOViolation{{Message: "boom"}}},
		Consistency: ConsistencyReport{CheckedBodies: 5, DistinctKeys: 2},
	}
	var buf bytes.Buffer
	WriteTable(&buf, rep)
	out := buf.String()
	for _, want := range []string{"ramp@100rps", "onset at 200 RPS", "byte-identical", "FAIL", "boom", "malformed"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	rep.Saturation = &Saturation{Found: false, Threshold: 0.01}
	rep.SLO = &SLOResult{Pass: true}
	buf.Reset()
	WriteTable(&buf, rep)
	if out := buf.String(); !strings.Contains(out, "not reached") || !strings.Contains(out, "PASS") {
		t.Errorf("table missing not-reached/PASS branches:\n%s", out)
	}
}

// TestNextReportPath numbers like BENCH_<n>.json: first unused LOAD_<n>.
func TestNextReportPath(t *testing.T) {
	dir := t.TempDir()
	if got, want := NextReportPath(dir), filepath.Join(dir, "LOAD_0.json"); got != want {
		t.Fatalf("empty dir: %s, want %s", got, want)
	}
	if err := os.WriteFile(filepath.Join(dir, "LOAD_0.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, want := NextReportPath(dir), filepath.Join(dir, "LOAD_1.json"); got != want {
		t.Fatalf("after LOAD_0: %s, want %s", got, want)
	}
}
