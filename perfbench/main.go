// Command perfbench is ppcsim's benchmark. It runs named workloads, each
// in its own child process so peak RSS is per workload, checks every
// simulated Result against golden digests, and prints each metric with
// its unit, median, quartiles and sample count. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"refs_per_s": {"value": ..., "unit": "refs/s"}, ...}}
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced
// run (-trace 1) runs each workload once untraced and once with timing
// wrappers around the layer boundaries, and reports the per-layer
// metrics. See README.md for the workloads, the metrics and -compare.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh [-workload a,b] [-seed N] [-seconds S] [-trace 0|1] [-o out.json] [-spans f.json] [-update]
//	bash perfbench/run.sh -compare 'parent/*.json' 'change/*.json'
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"
)

// goldenPath is where -update writes the seed-0 digests, relative to the
// repository root (run.sh runs the binary there).
const goldenPath = "perfbench/testdata/digests.json"

//go:embed testdata/digests.json
var goldenJSON []byte

// workloadNames lists the workloads in the order a full run takes them.
var workloadNames = []string{"paper-online", "paper-offline", "stream-window", "mixed-knowledge", "serve-v1"}

// defaultSeconds is how long a workload measures by default; it is
// BENCHMARK.json's run_seconds.
const defaultSeconds = 20

// tinyInputs shrinks every workload's inputs; only tests set it.
var tinyInputs = false

// runOpts parameterizes one workload run.
type runOpts struct {
	seed    int64
	seconds float64 // how long the run measures
	traced  bool
	tiny    bool     // test-sized inputs
	spans   *spanLog // nil unless traced
}

// runWorkload runs one workload in the calling process.
func runWorkload(name string, o runOpts) (*workloadReport, error) {
	var rep *workloadReport
	switch name {
	case "paper-online":
		rep = runSim(name, setupPaperOnline, o)
	case "paper-offline":
		rep = runSim(name, setupPaperOffline, o)
	case "stream-window":
		rep = runSim(name, setupStreamWindow, o)
	case "mixed-knowledge":
		rep = runSim(name, setupMixedKnowledge, o)
	case "serve-v1":
		rep = runServe(o)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
	}
	if o.traced && rep.Failed == 0 {
		// The layers this workload never reaches read 0.
		for _, m := range perLayer {
			if _, ok := rep.Metrics[m.Name]; !ok {
				rep.set(m.Name, 0)
			}
		}
	}
	return rep, nil
}

// workloadReport is one workload's outcome: what a child process hands
// its parent, and one entry of the result file.
type workloadReport struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Digest    string             `json:"digest"`
	Golden    string             `json:"golden,omitempty"` // the checked-in digest, seed 0 only
	Metrics   map[string]summary `json:"metrics"`
	Detail    *detail            `json:"detail,omitempty"`
}

func newReport(name string, o runOpts) *workloadReport {
	return &workloadReport{Workload: name, Seed: o.seed, Traced: o.traced, Metrics: map[string]summary{}}
}

// check counts one attempted operation, and a failure when err is set.
func (r *workloadReport) check(err error) {
	r.Attempted++
	if err != nil {
		r.fail(err)
	}
}

// fail records a failure that is not one attempted operation of its own
// (a digest disagreement, a set-up error).
func (r *workloadReport) fail(err error) {
	r.Failed++
	if len(r.Errors) < 10 {
		r.Errors = append(r.Errors, err.Error())
	}
}

func (r *workloadReport) set(name string, xs ...float64) {
	r.Metrics[name] = summarize(units[name], xs)
}

// finishDigest records a run's folded result digest, checking it against
// the golden for seed 0.
func (r *workloadReport) finishDigest(digest string) {
	r.Digest = digest
	if r.Seed != 0 {
		return
	}
	goldens, err := loadGoldens(goldenJSON)
	if err != nil {
		r.fail(err)
		return
	}
	r.Golden = goldens[r.Workload]
	if r.Golden != digest {
		r.fail(fmt.Errorf("result digest %s differs from the golden %q", digest, r.Golden))
	}
}

func loadGoldens(data []byte) (map[string]string, error) {
	g := map[string]string{}
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	return g, nil
}

// detail is the per-workload breakdown kept in the result file.
type detail struct {
	Passes int `json:"passes,omitempty"`
	// AlgRefsPerS is simulated refs per host second by algorithm, the
	// median over untraced passes.
	AlgRefsPerS map[string]float64 `json:"alg_refs_per_s,omitempty"`
	// P99Ms is the 99th-percentile latency of one operation: one pass's
	// cell times at the reference speed (serve-v1: one segment's requests,
	// hits included, as measured), over passes (segments).
	P99Ms *summary `json:"p99_ms,omitempty"`
	// Raw holds the host-time metrics as measured, before scaling to the
	// reference speed, and the probe's own time (speed.go).
	Raw *rawTimes `json:"raw,omitempty"`
	// Cells is the traced pass cell by cell, slowest first.
	Cells []cellDetail `json:"cells,omitempty"`
	Serve *serveDetail `json:"serve,omitempty"`
}

type rawTimes struct {
	RefsPerS *summary `json:"refs_per_s"`
	SetupS   *summary `json:"setup_s"`
	P50Ms    *summary `json:"p50_ms"`
	ProbeNs  *summary `json:"probe_ns"` // ns per probe unit; probeRefNs is the reference
}

func ptr[T any](v T) *T { return &v }

type cellDetail struct {
	Label      string     `json:"label"`
	WallMs     float64    `json:"wall_ms"`
	Refs       int64      `json:"refs"`
	RefsPerSec float64    `json:"refs_per_s"`
	Layers     layerTimes `json:"layers"`
}

// resultFile is what -o writes and -compare reads.
type resultFile struct {
	Host      host              `json:"host"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Workloads []*workloadReport `json:"workloads"`
}

func main() {
	code, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// run is main with the process edges injected; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		names   = fs.String("workload", strings.Join(workloadNames, ","), "comma-separated workloads to run")
		seed    = fs.Int64("seed", 0, "input seed; 0 is the paper's placement and the seed the goldens pin")
		seconds = fs.Float64("seconds", defaultSeconds, "how long each workload measures")
		traced  = fs.Int("trace", 0, "1 runs each workload untraced and traced and reports the per-layer metrics")
		out     = fs.String("o", "", "write the full result (host, every sample, details) to this JSON file")
		spans   = fs.String("spans", "", "with -trace 1, write the traced spans to this Chrome trace file")
		update  = fs.Bool("update", false, "rewrite "+goldenPath+" from this run's digests (seed 0)")
		compare = fs.Bool("compare", false, "compare result files: perfbench -compare PARENT_GLOB CHANGE_GLOB")
		child   = fs.String("child", "", "internal: run one workload in this process and print its report")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *compare {
		if fs.NArg() != 2 {
			return 2, errors.New("-compare takes two globs: parent result files, change result files")
		}
		return 0, compareGlobs(fs.Arg(0), fs.Arg(1), stdout)
	}
	if *traced != 0 && *traced != 1 {
		return 2, fmt.Errorf("-trace must be 0 or 1, got %d", *traced)
	}
	if *seconds <= 0 {
		return 2, fmt.Errorf("-seconds must be positive, got %g", *seconds)
	}
	o := runOpts{seed: *seed, seconds: *seconds, traced: *traced == 1, tiny: tinyInputs}
	if *child != "" {
		if o.traced {
			o.spans = newSpanLog()
		}
		rep, err := runWorkload(*child, o)
		if err != nil {
			return 2, err
		}
		if *spans != "" && o.spans != nil {
			if err := o.spans.write(*spans); err != nil {
				return 1, err
			}
		}
		return 0, json.NewEncoder(stdout).Encode(rep)
	}
	if *update && *seed != 0 {
		return 2, errors.New("-update pins the seed-0 digests; run it with -seed 0")
	}
	list := strings.Split(*names, ",")
	for _, n := range list {
		if !slices.Contains(workloadNames, n) {
			return 2, fmt.Errorf("unknown workload %q (have %s)", n, strings.Join(workloadNames, ", "))
		}
	}

	h := fingerprint()
	doc := resultFile{Host: h, Seed: o.seed, Seconds: o.seconds, Traced: o.traced}
	for _, name := range list {
		rep := runChild(name, o, spansPath(*spans, name, len(list)), stderr)
		if o.traced {
			rep.set("bench.calib_ms", h.CalibMs)
		}
		printReport(stderr, rep)
		doc.Workloads = append(doc.Workloads, rep)
	}
	if *out != "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return 1, err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return 1, err
		}
	}
	if *update {
		if err := updateGoldens(doc.Workloads); err != nil {
			return 1, err
		}
	}
	line, correct := finalLine(doc.Workloads, o.traced)
	if err := json.NewEncoder(stdout).Encode(line); err != nil {
		return 1, err
	}
	if !correct && !*update {
		return 1, nil
	}
	return 0, nil
}

// spansPath gives each workload its own spans file when several run.
func spansPath(path, workload string, n int) string {
	if path == "" || n == 1 {
		return path
	}
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "-" + workload + ext
}

// runChild runs one workload in a child process of this binary and adds
// the child's peak RSS. A child that fails yields a report that says so.
func runChild(name string, o runOpts, spans string, stderr io.Writer) *workloadReport {
	self, err := os.Executable()
	if err != nil {
		return failedReport(name, o, err)
	}
	// A run measures for o.seconds after its set-up; the deadline only
	// stops a hung child.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration((o.seconds+100)*float64(time.Second)))
	defer cancel()
	args := []string{"-child", name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds), "-trace", "0"}
	if o.traced {
		args[len(args)-1] = "1"
	}
	if spans != "" {
		args = append(args, "-spans", spans)
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return failedReport(name, o, fmt.Errorf("child %s: %w", name, err))
	}
	rep := &workloadReport{}
	if err := json.Unmarshal(out, rep); err != nil {
		return failedReport(name, o, fmt.Errorf("child %s report: %w", name, err))
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok && !o.traced {
		rep.set("peak_rss_mb", float64(ru.Maxrss)/1024) // Maxrss is in KiB
	}
	return rep
}

func failedReport(name string, o runOpts, err error) *workloadReport {
	r := newReport(name, o)
	r.check(err)
	return r
}

// metricValue is one metric in the final line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type finalResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// finalLine folds the reports into the last stdout line. With several
// workloads, metric names take a "<workload>/" prefix.
func finalLine(reps []*workloadReport, traced bool) (finalResult, bool) {
	line := finalResult{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range reps {
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		for _, m := range metricsFor(traced) {
			s, ok := r.Metrics[m.Name]
			if !ok || math.IsNaN(s.Median) || math.IsInf(s.Median, 0) {
				line.Failed++
				continue
			}
			key := m.Name
			if len(reps) > 1 {
				key = r.Workload + "/" + m.Name
			}
			line.Metrics[key] = metricValue{Value: s.Median, Unit: m.Unit}
		}
	}
	if line.Attempted == 0 {
		line.Attempted = 1
	}
	line.Correct = line.Failed == 0
	return line, line.Correct
}

// updateGoldens rewrites the golden file with these reports' digests,
// keeping the entries of workloads that did not run.
func updateGoldens(reps []*workloadReport) error {
	g, err := loadGoldens(goldenJSON)
	if err != nil {
		return err
	}
	for _, r := range reps {
		if r.Digest == "" {
			return fmt.Errorf("workload %s produced no digest: %v", r.Workload, r.Errors)
		}
		g[r.Workload] = r.Digest
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(data, '\n'), 0o644)
}

// printReport writes the human-readable form of one report.
func printReport(w io.Writer, r *workloadReport) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	golden := ""
	switch {
	case r.Golden != "" && r.Golden == r.Digest:
		golden = " (matches golden)"
	case r.Golden != "" || r.Seed == 0:
		golden = " (GOLDEN MISMATCH)"
	}
	fmt.Fprintf(w, "%s  seed %d  %s  attempted %d  failed %d  digest %.16s%s\n",
		r.Workload, r.Seed, mode, r.Attempted, r.Failed, r.Digest, golden)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	for _, m := range metricsFor(r.Traced) {
		s, ok := r.Metrics[m.Name]
		if !ok {
			fmt.Fprintf(w, "  %-36s %-12s missing\n", m.Name, m.Unit)
			continue
		}
		fmt.Fprintf(w, "  %-36s %-12s %12.6g  [q1 %.6g  q3 %.6g]  n=%d\n", m.Name, m.Unit, s.Median, s.Q1, s.Q3, s.N)
	}
	if r.Detail != nil && r.Detail.P99Ms != nil {
		s := r.Detail.P99Ms
		fmt.Fprintf(w, "  %-36s %-12s %12.6g  [q1 %.6g  q3 %.6g]  n=%d\n", "p99_ms (no bound)", s.Unit, s.Median, s.Q1, s.Q3, s.N)
	}
}
