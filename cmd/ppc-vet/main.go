// Command ppc-vet runs the repository's domain analyzers — detrand,
// maporder, floateq, obsguard, lockguard, goroleak, ctxflow,
// errenvelope, hotalloc — over Go packages and reports every violation
// of the simulator's determinism, float-time, observability,
// concurrency-safety, and boundary-discipline invariants.
//
// Usage:
//
//	ppc-vet [flags] [packages]
//
// With no packages, ./... is analyzed. Exit status is 0 when the tree is
// clean, 1 when diagnostics were reported (or, with -suppressions, when
// a stale suppression exists), and 2 on analysis failure.
//
//	-json              emit the full report (diagnostics, per-analyzer
//	                   wall time, suppression audit) as one JSON object
//	-fixtures          run the analyzer fixture self-check and exit
//	-suppressions      list every //ppcvet:ignore directive with its
//	                   file:line and reason; exit 1 if any is stale
//
// Packages are analyzed on GOMAXPROCS workers. The analyzers' settings
// (the packages detrand and obsguard skip, the types ctxflow lets carry
// a context) are fixed in configuredAnalyzers.
//
// A finding is suppressed by a trailing or immediately-preceding
// //ppcvet:ignore <reason> comment; the reason is mandatory, and a
// suppression that no longer suppresses anything is flagged stale by
// -suppressions so dead ignores cannot accumulate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"ppcsim/internal/analysis"
	"ppcsim/internal/analysis/ctxflow"
	"ppcsim/internal/analysis/detrand"
	"ppcsim/internal/analysis/errenvelope"
	"ppcsim/internal/analysis/floateq"
	"ppcsim/internal/analysis/goroleak"
	"ppcsim/internal/analysis/hotalloc"
	"ppcsim/internal/analysis/lockguard"
	"ppcsim/internal/analysis/maporder"
	"ppcsim/internal/analysis/obsguard"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit the full report as one JSON object")
	fixtures := flag.Bool("fixtures", false, "run the analyzer fixture self-check and exit")
	suppressions := flag.Bool("suppressions", false, "audit //ppcvet:ignore directives; exit 1 on stale ones")
	flag.Usage = usage
	flag.Parse()

	if *fixtures {
		if err := runFixtures(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	res, err := analysis.Vet(".", patterns, configuredAnalyzers(), 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ppc-vet:", err)
		os.Exit(2)
	}
	if *suppressions {
		if stale := writeSuppressions(os.Stdout, res.Suppressions); stale > 0 {
			os.Exit(1)
		}
		return
	}
	if *jsonOut {
		writeJSON(os.Stdout, res)
	} else {
		writeText(os.Stdout, res.Diagnostics)
	}
	if len(res.Diagnostics) > 0 {
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: ppc-vet [flags] [packages]\n\nanalyzers:\n")
	for _, a := range configuredAnalyzers() {
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
	}
	fmt.Fprintf(os.Stderr, "\nflags:\n")
	flag.PrintDefaults()
}

// configuredAnalyzers returns the analyzers with the repository's
// settings:
//   - detrand skips the HTTP serving layer and its load harness: both
//     measure real request latency and deadlines, so wall-clock reads
//     there are the point, not a determinism leak (the harness's request
//     stream is still seeded; only its schedule walks the wall clock).
//     The simulator itself (everything the serving layer calls into)
//     remains covered.
//   - obsguard skips the package that owns the Observer contract: its
//     Multi fan-out iterates members Tee has already nil-filtered, so
//     per-call guards there would be dead code.
//   - ctxflow allows the two struct types with a documented reason to
//     carry a context: the engine Config threads cooperative
//     cancellation into a synchronous simulation loop that predates
//     context plumbing, and the coordinator's jobRun scopes one sweep
//     job's retries and streams to the request that created it.
func configuredAnalyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		detrand.New([]string{"ppcsim/internal/serve", "ppcsim/cmd/ppc-serve", "ppcsim/internal/load", "ppcsim/cmd/ppc-load"}),
		maporder.Analyzer,
		floateq.Analyzer,
		obsguard.New([]string{"ppcsim/internal/obs"}),
		lockguard.Analyzer,
		goroleak.Analyzer,
		ctxflow.New([]string{"ppcsim/internal/engine.Config", "ppcsim/internal/serve/coord.jobRun"}),
		errenvelope.Analyzer,
		hotalloc.Analyzer,
	}
}

// relPath shortens filename to a cwd-relative path when that stays
// inside the tree.
func relPath(cwd, name string) string {
	if cwd != "" {
		if rel, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(rel, "..") {
			return rel
		}
	}
	return name
}

func writeText(w io.Writer, diags []analysis.Diagnostic) {
	cwd, _ := os.Getwd()
	for _, d := range diags {
		fmt.Fprintf(w, "%s:%d:%d: [%s] %s\n", relPath(cwd, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
}

// writeSuppressions renders the ignore-directive audit and returns the
// number of stale entries — directives that suppressed nothing on this
// run and should be deleted (or the regression they hid re-fixed).
func writeSuppressions(w io.Writer, sups []analysis.Suppression) int {
	cwd, _ := os.Getwd()
	stale := 0
	for _, s := range sups {
		state := "used "
		if !s.Used {
			state = "STALE"
			stale++
		}
		fmt.Fprintf(w, "%s %s:%d: %s\n", state, relPath(cwd, s.Pos.Filename), s.Pos.Line, s.Reason)
	}
	fmt.Fprintf(w, "%d suppressions, %d stale\n", len(sups), stale)
	return stale
}

// jsonDiag is the machine-readable diagnostic shape for -json output.
type jsonDiag struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// jsonSuppression is one audited //ppcvet:ignore directive.
type jsonSuppression struct {
	File   string `json:"file"`
	Line   int    `json:"line"`
	Reason string `json:"reason"`
	Used   bool   `json:"used"`
}

// jsonReport is the -json document: the diagnostics, how long each
// analyzer took across all packages, and the suppression audit, so CI
// can archive one artifact per run.
type jsonReport struct {
	Diagnostics    []jsonDiag         `json:"diagnostics"`
	AnalyzerWallMS map[string]float64 `json:"analyzer_wall_ms"`
	Packages       int                `json:"packages"`
	Suppressions   []jsonSuppression  `json:"suppressions"`
}

func writeJSON(w io.Writer, res analysis.VetResult) {
	report := jsonReport{
		Diagnostics:    make([]jsonDiag, 0, len(res.Diagnostics)),
		AnalyzerWallMS: make(map[string]float64, len(res.Timings)),
		Packages:       res.Packages,
		Suppressions:   make([]jsonSuppression, 0, len(res.Suppressions)),
	}
	for _, d := range res.Diagnostics {
		report.Diagnostics = append(report.Diagnostics, jsonDiag{
			Analyzer: d.Analyzer,
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Message:  d.Message,
		})
	}
	for name, dur := range res.Timings {
		report.AnalyzerWallMS[name] = float64(dur.Microseconds()) / 1000
	}
	for _, s := range res.Suppressions {
		report.Suppressions = append(report.Suppressions, jsonSuppression{
			File:   s.Pos.Filename,
			Line:   s.Pos.Line,
			Reason: s.Reason,
			Used:   s.Used,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(report)
}

// fixtureInstance adapts an analyzer for its fixture packages, whose
// import paths are fixture/<dir> rather than real module paths: ctxflow
// allowlists the clean fixture's carrier, and errenvelope's scope and
// helper set are rebased onto the fixture tree.
func fixtureInstance(a *analysis.Analyzer, fixtureDir string) *analysis.Analyzer {
	switch a.Name {
	case "ctxflow":
		if filepath.Base(fixtureDir) == "clean" {
			return ctxflow.New([]string{"fixture/clean.carrier"})
		}
	case "errenvelope":
		return errenvelope.New(errenvelope.Config{
			Scope:     []string{"fixture/"},
			Transport: []string{"writeJSON"},
			Blessed:   []string{"WriteError"},
			Envelope:  "ErrorEnvelope",
		})
	}
	return a
}

// runFixtures checks every analyzer against its testdata packages — the
// same suite the analyzers' unit tests run, callable from CI or the
// command line without go test.
func runFixtures(w io.Writer) error {
	failed := false
	for _, a := range []*analysis.Analyzer{
		detrand.Analyzer, maporder.Analyzer, floateq.Analyzer, obsguard.Analyzer,
		lockguard.Analyzer, goroleak.Analyzer, ctxflow.Analyzer, errenvelope.Analyzer, hotalloc.Analyzer,
	} {
		dir, err := analyzerDir(a.Name)
		if err != nil {
			return err
		}
		fixtureDirs, err := analysis.FixtureDirs(dir)
		if err != nil {
			return err
		}
		for _, fd := range fixtureDirs {
			if err := analysis.RunFixture(fixtureInstance(a, fd), fd); err != nil {
				failed = true
				fmt.Fprintf(w, "FAIL %s %s\n%v\n", a.Name, filepath.Base(fd), err)
				continue
			}
			fmt.Fprintf(w, "ok   %s %s\n", a.Name, filepath.Base(fd))
		}
	}
	if failed {
		return fmt.Errorf("fixture self-check failed")
	}
	return nil
}

// analyzerDir locates an analyzer package's source directory through the
// go command, so -fixtures works from any directory inside the module.
func analyzerDir(name string) (string, error) {
	out, err := analysis.GoListDir("ppcsim/internal/analysis/" + name)
	if err != nil {
		return "", fmt.Errorf("locating analyzer %s: %v", name, err)
	}
	return out, nil
}
