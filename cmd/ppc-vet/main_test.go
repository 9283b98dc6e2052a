package main

import (
	"bytes"
	"encoding/json"
	"go/token"
	"strings"
	"testing"
	"time"

	"ppcsim/internal/analysis"
)

// TestFixtureSelfCheck is the -fixtures path: every analyzer must pass
// its testdata suite under plain `go test ./...`, keeping the fixture
// contract inside tier-1 verification.
func TestFixtureSelfCheck(t *testing.T) {
	var buf bytes.Buffer
	if err := runFixtures(&buf); err != nil {
		t.Fatalf("fixture self-check failed: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, a := range []string{
		"detrand", "maporder", "floateq", "obsguard",
		"lockguard", "goroleak", "ctxflow", "errenvelope", "hotalloc",
	} {
		if !strings.Contains(out, "ok   "+a) {
			t.Errorf("analyzer %s missing from self-check output:\n%s", a, out)
		}
	}
}

// TestDogfoodTreeIsClean runs the configured multichecker over the whole
// module, asserting the acceptance criterion that `ppc-vet ./...` exits
// clean on the final tree — no diagnostics, and no stale suppressions.
func TestDogfoodTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module analysis in -short mode")
	}
	res, err := analysis.Vet("../..", []string{"./..."}, configuredAnalyzers(), 0)
	if err != nil {
		t.Fatalf("vet: %v", err)
	}
	for _, d := range res.Diagnostics {
		t.Errorf("%s", d)
	}
	for _, s := range res.Suppressions {
		if !s.Used {
			t.Errorf("%s:%d: stale suppression %q no longer suppresses anything; delete it",
				s.Pos.Filename, s.Pos.Line, s.Reason)
		}
	}
	if res.Packages == 0 {
		t.Error("vet analyzed zero packages")
	}
	for _, a := range []string{"lockguard", "goroleak", "ctxflow", "errenvelope", "hotalloc"} {
		if _, ok := res.Timings[a]; !ok {
			t.Errorf("no wall time recorded for analyzer %s", a)
		}
	}
}

func TestJSONOutputShape(t *testing.T) {
	res := analysis.VetResult{
		Diagnostics: []analysis.Diagnostic{{
			Analyzer: "detrand",
			Pos:      token.Position{Filename: "x.go", Line: 3, Column: 7},
			Message:  "wall-clock time.Now in simulator code",
		}},
		Suppressions: []analysis.Suppression{{
			Pos:    token.Position{Filename: "y.go", Line: 12},
			Reason: "latency metric, not simulation time",
			Used:   true,
		}},
		Timings:  map[string]time.Duration{"detrand": 1500 * time.Microsecond},
		Packages: 2,
	}
	var buf bytes.Buffer
	writeJSON(&buf, res)
	var decoded jsonReport
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(decoded.Diagnostics) != 1 || decoded.Diagnostics[0].Analyzer != "detrand" ||
		decoded.Diagnostics[0].Line != 3 || decoded.Diagnostics[0].Col != 7 {
		t.Errorf("bad diagnostics round-trip: %+v", decoded.Diagnostics)
	}
	if decoded.Packages != 2 {
		t.Errorf("packages = %d, want 2", decoded.Packages)
	}
	if ms := decoded.AnalyzerWallMS["detrand"]; ms != 1.5 {
		t.Errorf("analyzer_wall_ms[detrand] = %v, want 1.5", ms)
	}
	if len(decoded.Suppressions) != 1 || !decoded.Suppressions[0].Used ||
		decoded.Suppressions[0].Reason != "latency metric, not simulation time" {
		t.Errorf("bad suppressions round-trip: %+v", decoded.Suppressions)
	}

	// An empty report must still render arrays, not nulls: CI consumers
	// index into .diagnostics without null checks.
	buf.Reset()
	writeJSON(&buf, analysis.VetResult{})
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatalf("invalid empty JSON: %v", err)
	}
	for _, key := range []string{"diagnostics", "suppressions"} {
		if s := strings.TrimSpace(string(raw[key])); s != "[]" {
			t.Errorf("empty report %s rendered %s, want []", key, s)
		}
	}
}

// TestSuppressionsAudit checks the -suppressions text rendering and its
// stale count, which drives the exit status CI keys on.
func TestSuppressionsAudit(t *testing.T) {
	var buf bytes.Buffer
	stale := writeSuppressions(&buf, []analysis.Suppression{
		{Pos: token.Position{Filename: "a.go", Line: 3}, Reason: "live one", Used: true},
		{Pos: token.Position{Filename: "b.go", Line: 9}, Reason: "dead one", Used: false},
	})
	if stale != 1 {
		t.Fatalf("stale = %d, want 1", stale)
	}
	out := buf.String()
	for _, want := range []string{"used  a.go:3: live one", "STALE b.go:9: dead one", "2 suppressions, 1 stale"} {
		if !strings.Contains(out, want) {
			t.Errorf("audit output missing %q:\n%s", want, out)
		}
	}
}
