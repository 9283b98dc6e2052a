// Command ppc-sweep runs a sweep grid and emits one CSV row per cell,
// for plotting or regression tracking. The grid is a coord.JobSpec, the
// body POST /v1/jobs takes: built from the flags, or read whole from
// -spec. The cells run locally on a worker pool (-parallel, default one
// worker per CPU), or on a ppc-coord cluster with -coord. Rows are
// written in cell order either way, so the output is byte-identical for
// any -parallel value and for local and cluster runs.
//
// Usage:
//
//	ppc-sweep -traces synth,ld -algs fixed-horizon,aggressive -disks 1,2,4
//	ppc-sweep -traces all -algs forestall -disks 1,4 -scheds cscan,fcfs -o out.csv
//	ppc-sweep -traces all -algs all -parallel 8
//	ppc-sweep -large 1e7:65536:zipf:1 -window 64,4096 -algs forestall -disks 2
//	ppc-sweep -trace-file big.ppccol -window 4096 -algs forestall
//	ppc-sweep -coord http://localhost:8070 -large 1e9:65536:zipf:1 -window 4096 -algs forestall
//	ppc-sweep -coord http://localhost:8070 -spec job.json
//
// -large streams a synthetic trace; on a cluster the workers generate
// it, so a 10^9-reference sweep costs no trace bytes on the wire.
// -trace-file runs a columnar trace file by its hash; with -coord it is
// uploaded first if no worker holds it. Both stream, so both need
// -window.
//
// The exit status is 2 for a configuration error, 1 for a runtime
// failure, including a cluster job that did not complete.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"ppcsim"
	"ppcsim/internal/report"
	"ppcsim/internal/serve"
	"ppcsim/internal/serve/coord"
)

// maxCells bounds a grid; the coordinator applies its own limit.
const maxCells = 1 << 20

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		var cfgErr *ppcsim.ConfigError
		if errors.As(err, &cfgErr) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// sweep is a parsed command line: the grid and where to run it.
type sweep struct {
	spec      *coord.JobSpec
	traceFile *serve.TraceFile // nil without -trace-file
	coordURL  string
	retryFor  time.Duration
	parallel  int
	out       string
}

func parseArgs(args []string) (*sweep, error) {
	fs := flag.NewFlagSet("ppc-sweep", flag.ExitOnError)
	var (
		traces    = fs.String("traces", "synth", "comma-separated trace names, or 'all'")
		large     = fs.String("large", "", "stream a synthetic trace instead of -traces: refs[:blocks[:pattern[:seed]]] (requires -window)")
		traceFile = fs.String("trace-file", "", "columnar trace file to run by hash instead of -traces (requires -window)")
		specPath  = fs.String("spec", "", "JobSpec JSON file ('-' = stdin) describing the grid; the grid flags are ignored")
		algs      = fs.String("algs", "fixed-horizon,aggressive,forestall", "comma-separated algorithms, or 'all'")
		disks     = fs.String("disks", "1,2,4", "comma-separated array sizes")
		scheds    = fs.String("scheds", "cscan", "comma-separated schedulers: cscan,fcfs")
		caches    = fs.String("caches", "0", "comma-separated cache sizes (0 = trace default)")
		batches   = fs.String("batches", "0", "comma-separated batch sizes (0 = paper default)")
		horizons  = fs.String("horizons", "0", "comma-separated horizons (0 = 62)")
		hintFrac  = fs.Float64("hint-fraction", 1, "fraction of references disclosed")
		hintAcc   = fs.Float64("hint-accuracy", 1, "accuracy of disclosed hints")
		window    = fs.String("window", "0", "comma-separated lookahead windows in references (0 = unlimited)")
		timeoutMs = fs.Float64("timeout-ms", 0, "per-cell simulation deadline in ms (0 = none locally, the worker default on a cluster)")
		coordURL  = fs.String("coord", "", "run the grid on the ppc-coord coordinator at this base URL")
		retryFor  = fs.Duration("retry-for", 0, "with -coord, keep retrying the first connection this long (for scripted startups)")
		parallel  = fs.Int("parallel", runtime.NumCPU(), "number of concurrent local simulations")
		out       = fs.String("o", "", "output CSV file (default stdout)")
	)
	fs.Parse(args)
	sw := &sweep{coordURL: strings.TrimRight(*coordURL, "/"), retryFor: *retryFor, parallel: *parallel, out: *out}
	if *traceFile != "" {
		var err error
		if sw.traceFile, err = serve.HashTraceFile(*traceFile); err != nil {
			return nil, err
		}
	}
	if *specPath != "" {
		body, err := readSpec(*specPath)
		if err != nil {
			return nil, err
		}
		sw.spec, err = coord.ParseJobSpec(body)
		return sw, err
	}

	tracesSet := false
	fs.Visit(func(f *flag.Flag) { tracesSet = tracesSet || f.Name == "traces" })
	sources := 0
	for _, set := range []bool{tracesSet, *large != "", *traceFile != ""} {
		if set {
			sources++
		}
	}
	if sources > 1 {
		return nil, &ppcsim.ConfigError{Field: "Trace",
			Reason: "-traces, -large and -trace-file are mutually exclusive"}
	}
	js := &coord.JobSpec{Algorithms: all(splitList(*algs), ppcsim.Algorithms), Schedulers: splitList(*scheds), TimeoutMs: *timeoutMs}
	var err error
	switch {
	case *large != "":
		if js.TraceSpec, err = serve.ParseTraceSpec(*large); err != nil {
			return nil, err
		}
	case sw.traceFile != nil:
		js.TraceHash = sw.traceFile.Hash
	default:
		js.Traces = all(splitList(*traces), ppcsim.TraceNames)
	}
	if js.DiskCounts, err = splitInts(*disks); err != nil {
		return nil, err
	}
	if js.CacheSizes, err = positiveAxis(*caches, "caches", "CacheBlocks"); err != nil {
		return nil, err
	}
	if js.Windows, err = positiveAxis(*window, "window", "Window"); err != nil {
		return nil, err
	}
	if js.BatchSizes, err = axis(*batches); err != nil {
		return nil, err
	}
	if js.Horizons, err = axis(*horizons); err != nil {
		return nil, err
	}
	if *hintFrac != 1 || *hintAcc != 1 { //ppcvet:ignore flag-default sentinels, parsed rather than computed
		js.Hints = &serve.Hints{Fraction: *hintFrac, Accuracy: *hintAcc}
	}
	sw.spec = js
	return sw, nil
}

// run parses args, expands the grid and runs it, writing the CSV to the
// -o file or stdout and progress to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	sw, err := parseArgs(args)
	if err != nil {
		return err
	}
	cells, err := sw.spec.Cells(maxCells)
	var ce *coord.CellError
	if errors.As(err, &ce) {
		return named(ce.Spec, ce.Err)
	}
	if err == nil {
		// The job-level rules a coordinator applies to the same spec,
		// once a bad grid point has had the chance to name itself.
		err = sw.spec.Validate()
	}
	if err != nil {
		return err
	}

	var results []*ppcsim.Result
	var runErr error
	if sw.coordURL != "" {
		results, runErr = sw.runCluster(cells, stderr)
	} else {
		results, runErr = sw.runLocal(cells)
	}
	if results == nil {
		return runErr
	}
	w := stdout
	if sw.out != "" {
		f, err := os.Create(sw.out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := writeCSV(w, cells, results); err != nil {
		return err
	}
	return runErr
}

// runLocal builds every cell's options before it runs any, so a bad
// cell fails the sweep (nil results) before anything is written. It
// then runs the cells on sw.parallel workers. On a failed run it
// returns the results of the cells before it, and the failure.
func (sw *sweep) runLocal(cells []coord.Cell) ([]*ppcsim.Result, error) {
	loaded := map[string]*ppcsim.Trace{}
	env := serve.SourceEnv{LoadTrace: func(name string) (*ppcsim.Trace, error) {
		// One read-only *Trace per name, shared by every worker.
		if tr, ok := loaded[name]; ok {
			return tr, nil
		}
		tr, err := ppcsim.NewTrace(name)
		if err == nil {
			loaded[name] = tr
		}
		return tr, err
	}}
	if sw.traceFile != nil {
		env.OpenHash = sw.traceFile.OpenHash
	}
	opts := make([]ppcsim.Options, len(cells))
	cleanups := make([]func(), len(cells))
	for i, c := range cells {
		o, cleanup, err := c.Spec.BuildOptions(env)
		if err != nil {
			for _, f := range cleanups[:i] {
				f()
			}
			return nil, named(c.Spec, err)
		}
		opts[i], cleanups[i] = o, cleanup
	}

	timeout := time.Duration(sw.spec.TimeoutMs * float64(time.Millisecond))
	results := make([]*ppcsim.Result, len(cells))
	errs := make([]error, len(cells))
	next := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < max(1, min(sw.parallel, len(cells))); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range next {
				res, err := runCell(opts[idx], timeout)
				cleanups[idx]()
				results[idx], errs[idx] = &res, err
			}
		}()
	}
	for idx := range cells {
		next <- idx
	}
	close(next)
	wg.Wait()
	for idx, err := range errs {
		if err != nil {
			return results[:idx], named(cells[idx].Spec, err)
		}
	}
	return results, nil
}

// runCell runs one cell, under a deadline when timeout is positive.
func runCell(opts ppcsim.Options, timeout time.Duration) (ppcsim.Result, error) {
	if timeout <= 0 {
		return ppcsim.Run(opts)
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return ppcsim.RunContext(ctx, opts)
}

// runCluster posts the grid to the coordinator and collects each cell's
// result from the NDJSON stream. A failed cell is reported on stderr
// and has no result; a job that did not complete is an error.
func (sw *sweep) runCluster(cells []coord.Cell, stderr io.Writer) ([]*ppcsim.Result, error) {
	if sw.traceFile != nil {
		if err := ensureTrace(sw.coordURL, sw.traceFile.Path, sw.traceFile.Hash, sw.retryFor, stderr); err != nil {
			return nil, err
		}
	}
	body, err := json.Marshal(sw.spec)
	if err != nil {
		return nil, err
	}
	resp, err := retryDo(sw.retryFor, func() (*http.Response, error) {
		return http.Post(sw.coordURL+"/v1/jobs", "application/json", bytes.NewReader(body))
	})
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("coordinator rejected job: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	results, summary, err := collect(resp.Body, cells, stderr)
	if err != nil {
		return nil, err
	}
	if summary == nil {
		return nil, fmt.Errorf("stream ended without a summary record")
	}
	fmt.Fprintf(stderr, "ppc-sweep: %d/%d cells done (%d failed, %d retried, %d from store, %d cache hits) in %.0fms\n",
		summary.CellsDone, summary.CellsTotal, summary.CellsFailed, summary.CellsRetried,
		summary.CellsFromStore, summary.CacheHits, summary.ElapsedMs)
	if !summary.Complete {
		return results, fmt.Errorf("job %s incomplete", summary.JobKey)
	}
	return results, nil
}

// collect reads a /v1/jobs NDJSON stream into per-cell results, indexed
// like cells, and its summary record.
func collect(r io.Reader, cells []coord.Cell, stderr io.Writer) ([]*ppcsim.Result, *coord.Summary, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	results := make([]*ppcsim.Result, len(cells))
	var summary *coord.Summary
	for sc.Scan() {
		line := sc.Bytes()
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return nil, nil, fmt.Errorf("bad stream line: %v: %s", err, line)
		}
		if probe.Type == "summary" {
			summary = new(coord.Summary)
			if err := json.Unmarshal(line, summary); err != nil {
				return nil, nil, err
			}
			continue
		}
		var rec coord.CellRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, nil, err
		}
		if rec.Index < 0 || rec.Index >= len(cells) {
			return nil, nil, fmt.Errorf("stream cell index %d outside the %d-cell grid", rec.Index, len(cells))
		}
		if rec.Error != nil {
			fmt.Fprintf(stderr, "ppc-sweep: cell %d failed: %s\n", rec.Index, rec.Error.Message)
			continue
		}
		res := new(ppcsim.Result)
		if err := json.Unmarshal(rec.Result, res); err != nil {
			return nil, nil, fmt.Errorf("cell %d result: %v", rec.Index, err)
		}
		results[rec.Index] = res
	}
	return results, summary, sc.Err()
}

// writeCSV writes the sweep CSV: the header, then one row per cell
// with a result, in cell order.
func writeCSV(w io.Writer, cells []coord.Cell, results []*ppcsim.Result) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(report.SweepHeader()); err != nil {
		return err
	}
	for i, res := range results {
		if res == nil {
			continue
		}
		if err := cw.Write(report.SweepRow(sweepRun(cells[i].Spec, *res), *res)); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// sweepRun is a cell's configuration as its CSV row reports it, with
// the simulator's defaults spelled out. A bundled trace is named as
// given, a streamed one by the name its run reports (before the run, a
// generator's resolved name or the store hash), an inline one "inline".
func sweepRun(spec serve.RunSpec, res ppcsim.Result) report.SweepRun {
	var trace string
	switch {
	case spec.Trace != "":
		trace = spec.Trace
	case spec.TraceText != "":
		trace = "inline"
	case res.Trace != "":
		trace = res.Trace
	case spec.TraceSpec != nil:
		trace = spec.TraceSpec.ResolvedName()
	default:
		trace = spec.TraceHash
	}
	alg := spec.Algorithm
	if a, err := ppcsim.ParseAlgorithm(alg); err == nil {
		alg = string(a)
	}
	sched, _ := ppcsim.ParseDiscipline(spec.Scheduler) // "" is the CSCAN default
	hintFrac, hintAcc := 1.0, 1.0
	if spec.Hints != nil {
		hintFrac, hintAcc = spec.Hints.Fraction, spec.Hints.Accuracy
	}
	return report.SweepRun{
		Trace: trace, Algorithm: alg, Disks: intOr(spec.Disks, 1), Scheduler: sched.String(),
		CacheBlocks: intOr(spec.CacheBlocks, 0), Batch: spec.BatchSize, Horizon: spec.Horizon,
		HintFraction: hintFrac, HintAccuracy: hintAcc, Window: intOr(spec.Window, 0),
	}
}

// named prefixes err with the cell's trace/algorithm/d=disks.
func named(spec serve.RunSpec, err error) error {
	r := sweepRun(spec, ppcsim.Result{})
	return fmt.Errorf("%s/%s/d=%d: %w", r.Trace, r.Algorithm, r.Disks, err)
}

// retryDo runs do, retrying connection-level failures every 100ms for up
// to retryFor (an HTTP error status is a response, not a failure).
func retryDo(retryFor time.Duration, do func() (*http.Response, error)) (*http.Response, error) {
	for waited := time.Duration(0); ; waited += 100 * time.Millisecond {
		resp, err := do()
		if err == nil || waited >= retryFor {
			return resp, err
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// ensureTrace makes sure the cluster holds the columnar trace file at
// path, whose hash is given: a HEAD probe against the coordinator's
// trace store, then a PUT of the file bytes on a miss. The probe honors
// retryFor so scripted bring-ups can race the coordinator's startup.
func ensureTrace(coordBase, path, hash string, retryFor time.Duration, stderr io.Writer) error {
	url := coordBase + "/v1/traces/" + hash
	resp, err := retryDo(retryFor, func() (*http.Response, error) {
		return http.Head(url)
	})
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent:
		return nil // already on a worker; preflight replicates as needed
	case http.StatusNotFound:
	default:
		return fmt.Errorf("trace probe: %s", resp.Status)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	req, err := http.NewRequest(http.MethodPut, url, f)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	putResp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer putResp.Body.Close()
	if putResp.StatusCode != http.StatusCreated && putResp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(putResp.Body, 4096))
		return fmt.Errorf("trace upload: %s: %s", putResp.Status, strings.TrimSpace(string(msg)))
	}
	fmt.Fprintf(stderr, "ppc-sweep: uploaded trace %s (%s)\n", hash[:12], path)
	return nil
}

// readSpec reads a JobSpec body from path, or from stdin for "-".
func readSpec(path string) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func splitInts(s string) ([]int, error) {
	var out []int
	for _, p := range splitList(s) {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q: %v", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// axis parses an integer axis flag, where a lone 0 means the default:
// no axis.
func axis(s string) ([]int, error) {
	vals, err := splitInts(s)
	if len(vals) == 1 && vals[0] == 0 {
		vals = nil
	}
	return vals, err
}

// positiveAxis is axis for a flag whose listed values must be positive,
// as they must be on the wire.
func positiveAxis(s, flag, field string) ([]int, error) {
	vals, err := axis(s)
	for _, v := range vals {
		if v <= 0 && err == nil {
			err = &ppcsim.ConfigError{Field: field, Reason: fmt.Sprintf("-%s values must be positive, got %d (a lone 0 selects the default)", flag, v)}
		}
	}
	return vals, err
}

// all expands the lone name "all" to every name in names.
func all[T ~string](list []string, names []T) []string {
	if len(list) != 1 || list[0] != "all" {
		return list
	}
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = string(n)
	}
	return out
}

func intOr(p *int, def int) int {
	if p != nil {
		return *p
	}
	return def
}
