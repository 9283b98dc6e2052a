// Command ppc-job submits one sweep grid to a ppc-coord coordinator and
// streams the results. By default it relays the coordinator's NDJSON
// stream to stdout as it arrives; with -csv it buffers the cells and
// emits the same CSV ppc-sweep writes for the equivalent grid — same
// header, same row order, same formatting — so cluster output can be
// diffed directly against local sweeps.
//
// Usage:
//
//	ppc-job -coord http://localhost:8070 -trace synth -algs demand,aggressive -disks 1,2
//	ppc-job -coord http://localhost:8070 -spec job.json
//	ppc-job -coord ... -large 1e9:65536:zipf:1 -windows 4096 -algs forestall
//	ppc-job -coord ... -trace-file big.coltrace -windows 4096
//	ppc-job ... -csv -o out.csv
//
// -large submits a generator spec: workers synthesize the reference
// stream locally, so a 10^9-reference sweep costs no trace bytes on the
// wire. -trace-file hashes a columnar trace file, uploads it to the
// cluster if no worker holds it yet, and submits the job by hash; both
// stream on the workers and therefore require -windows.
//
// The job summary goes to stderr; the exit status is zero only when the
// coordinator reports the grid complete.
package main

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"ppcsim"
	"ppcsim/internal/report"
	"ppcsim/internal/serve"
	"ppcsim/internal/serve/coord"
	"ppcsim/internal/serve/tracestore"
)

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

func main() {
	var (
		coordURL = flag.String("coord", "http://localhost:8070", "coordinator base URL")
		specPath = flag.String("spec", "", "JobSpec JSON file ('-' = stdin; overrides the grid flags)")
		traceFlg = flag.String("trace", "synth", "bundled trace name")
		largeFlg = flag.String("large", "", "stream a synthetic trace on the workers: refs[:blocks[:pattern[:seed]]] (requires -windows)")
		traceFl  = flag.String("trace-file", "", "columnar trace file to run by hash, uploading it to the cluster if absent (requires -windows)")
		algs     = flag.String("algs", "fixed-horizon,aggressive,forestall", "comma-separated algorithms")
		disks    = flag.String("disks", "", "comma-separated disk counts (empty = simulator default)")
		caches   = flag.String("caches", "", "comma-separated cache sizes (empty = trace default)")
		windows  = flag.String("windows", "", "comma-separated lookahead windows (empty = unlimited)")
		sched    = flag.String("sched", "", "disk scheduler: cscan or fcfs (empty = cscan)")
		hintFrac = flag.Float64("hint-fraction", 1, "fraction of references disclosed")
		hintAcc  = flag.Float64("hint-accuracy", 1, "accuracy of disclosed hints")
		timeout  = flag.Float64("timeout-ms", 0, "per-cell worker deadline in ms (0 = worker default)")
		asCSV    = flag.Bool("csv", false, "emit ppc-sweep-compatible CSV instead of the NDJSON stream")
		out      = flag.String("o", "", "output file (default stdout)")
		retryFor = flag.Duration("retry-for", 0, "keep retrying the initial connection this long (for scripted startups)")
	)
	flag.Parse()

	die := func(err error) {
		fmt.Fprintln(os.Stderr, "ppc-job:", err)
		os.Exit(1)
	}

	if *largeFlg != "" && *traceFl != "" {
		die(fmt.Errorf("-large and -trace-file are mutually exclusive"))
	}
	if *largeFlg != "" || *traceFl != "" {
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "trace" {
				die(fmt.Errorf("-trace cannot be combined with -large or -trace-file"))
			}
		})
	}
	base := strings.TrimRight(*coordURL, "/")

	var largeSpec *ppcsim.LargeTraceSpec
	if *largeFlg != "" {
		spec, err := ppcsim.ParseLargeTraceSpec(*largeFlg)
		if err != nil {
			die(err)
		}
		largeSpec = &spec
	}
	traceHash := ""
	if *traceFl != "" {
		h, err := ensureTrace(base, *traceFl, *retryFor)
		if err != nil {
			die(err)
		}
		traceHash = h
	}

	body, err := buildSpec(*specPath, *traceFlg, *algs, *disks, *caches, *windows, *sched, *hintFrac, *hintAcc, *timeout, largeSpec, traceHash)
	if err != nil {
		die(err)
	}
	// Expand the grid locally with the same code the coordinator runs, so
	// CSV mode knows each cell's configuration up front.
	spec, err := coord.ParseJobSpec(body)
	if err != nil {
		die(err)
	}
	cells, err := spec.Cells(1 << 20)
	if err != nil {
		die(err)
	}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			die(err)
		}
		defer f.Close()
		w = f
	}

	resp, err := submit(base+"/v1/jobs", body, *retryFor)
	if err != nil {
		die(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		die(fmt.Errorf("coordinator rejected job: %s: %s", resp.Status, strings.TrimSpace(string(msg))))
	}

	summary, err := stream(w, resp.Body, cells, *asCSV)
	if err != nil {
		die(err)
	}
	if summary == nil {
		die(fmt.Errorf("stream ended without a summary record"))
	}
	fmt.Fprintf(os.Stderr, "ppc-job: %d/%d cells done (%d failed, %d retried, %d from store, %d cache hits) in %.0fms\n",
		summary.CellsDone, summary.CellsTotal, summary.CellsFailed, summary.CellsRetried,
		summary.CellsFromStore, summary.CacheHits, summary.ElapsedMs)
	if !summary.Complete {
		os.Exit(1)
	}
}

// buildSpec assembles the JobSpec body from -spec or from the grid flags.
func buildSpec(specPath, trace, algs, disks, caches, windows, sched string, hintFrac, hintAcc, timeoutMs float64, large *ppcsim.LargeTraceSpec, traceHash string) ([]byte, error) {
	if specPath != "" {
		if specPath == "-" {
			return io.ReadAll(os.Stdin)
		}
		return os.ReadFile(specPath)
	}
	js := coord.JobSpec{Algorithms: splitList(algs), TimeoutMs: timeoutMs}
	switch {
	case large != nil:
		js.TraceSpec = &serve.TraceSpec{
			Name:          large.Name,
			Refs:          large.Refs,
			Blocks:        large.Blocks,
			Files:         large.Files,
			Pattern:       large.Pattern,
			MeanComputeMs: large.MeanComputeMs,
			Seed:          large.Seed,
			CacheBlocks:   large.CacheBlocks,
		}
	case traceHash != "":
		js.TraceHash = traceHash
	default:
		js.Trace = trace
	}
	js.Scheduler = sched
	var err error
	if js.DiskCounts, err = splitInts(disks); err != nil {
		return nil, err
	}
	if js.CacheSizes, err = splitInts(caches); err != nil {
		return nil, err
	}
	if js.Windows, err = splitInts(windows); err != nil {
		return nil, err
	}
	if hintFrac != 1 || hintAcc != 1 { //ppcvet:ignore flag-default sentinels, parsed rather than computed
		js.Hints = &serve.Hints{Fraction: hintFrac, Accuracy: hintAcc}
	}
	return json.Marshal(js)
}

// submit posts the job, optionally retrying the connection while the
// coordinator is still starting (scripted cluster bring-up).
func submit(url string, body []byte, retryFor time.Duration) (*http.Response, error) {
	return retryDo(retryFor, func() (*http.Response, error) {
		return http.Post(url, "application/json", bytes.NewReader(body))
	})
}

// retryDo runs do, retrying connection-level failures every 100ms for up
// to retryFor (an HTTP error status is a response, not a failure).
func retryDo(retryFor time.Duration, do func() (*http.Response, error)) (*http.Response, error) {
	var lastErr error
	for waited := time.Duration(0); ; waited += 100 * time.Millisecond {
		resp, err := do()
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if waited >= retryFor {
			return nil, lastErr
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// ensureTrace hashes the columnar trace file at path and makes sure the
// cluster holds it: a HEAD probe against the coordinator's trace store,
// then a PUT of the file bytes on miss. Returns the store hash the job
// should reference. The probe honors -retry-for so scripted bring-ups
// can race the coordinator's startup.
func ensureTrace(coordBase, path string, retryFor time.Duration) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	hash, _, err := tracestore.HashReader(f)
	if err != nil {
		return "", fmt.Errorf("hashing %s: %v", path, err)
	}
	url := coordBase + "/v1/traces/" + hash
	resp, err := retryDo(retryFor, func() (*http.Response, error) {
		return http.Head(url)
	})
	if err != nil {
		return "", err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent:
		return hash, nil // already on a worker; preflight replicates as needed
	case http.StatusNotFound:
	default:
		return "", fmt.Errorf("trace probe: %s", resp.Status)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return "", err
	}
	req, err := http.NewRequest(http.MethodPut, url, f)
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	putResp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", err
	}
	defer putResp.Body.Close()
	if putResp.StatusCode != http.StatusCreated && putResp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(putResp.Body, 4096))
		return "", fmt.Errorf("trace upload: %s: %s", putResp.Status, strings.TrimSpace(string(msg)))
	}
	fmt.Fprintf(os.Stderr, "ppc-job: uploaded trace %s (%s)\n", hash[:12], path)
	return hash, nil
}

// stream consumes the NDJSON job stream. In relay mode every line is
// copied through as it arrives; in CSV mode cells are buffered and
// written in index order with ppc-sweep's exact formatting.
func stream(w io.Writer, r io.Reader, cells []coord.Cell, asCSV bool) (*coord.Summary, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var summary *coord.Summary
	var recs []coord.CellRecord
	for sc.Scan() {
		line := sc.Bytes()
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return nil, fmt.Errorf("bad stream line: %v: %s", err, line)
		}
		if probe.Type == "summary" {
			var s coord.Summary
			if err := json.Unmarshal(line, &s); err != nil {
				return nil, err
			}
			summary = &s
			continue
		}
		if !asCSV {
			if _, err := w.Write(append(line, '\n')); err != nil {
				return nil, err
			}
			continue
		}
		var rec coord.CellRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, err
		}
		if rec.Error != nil {
			fmt.Fprintf(os.Stderr, "ppc-job: cell %d failed: %s\n", rec.Index, rec.Error.Message)
			continue
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if asCSV {
		if err := writeCSV(w, cells, recs); err != nil {
			return nil, err
		}
	}
	return summary, nil
}

// writeCSV renders completed cells in ppc-sweep's exact CSV dialect:
// same header, same index (= expansion) order, same value formatting,
// so `ppc-job -csv` over a cluster diffs clean against `ppc-sweep` run
// locally on the equivalent grid.
func writeCSV(w io.Writer, cells []coord.Cell, recs []coord.CellRecord) error {
	sort.Slice(recs, func(i, j int) bool { return recs[i].Index < recs[j].Index })
	cw := csv.NewWriter(w)
	if err := cw.Write(report.SweepHeader()); err != nil {
		return err
	}
	for _, rec := range recs {
		if rec.Index < 0 || rec.Index >= len(cells) {
			return fmt.Errorf("stream cell index %d outside the %d-cell grid", rec.Index, len(cells))
		}
		spec := cells[rec.Index].Spec
		var res ppcsim.Result
		if err := json.Unmarshal(rec.Result, &res); err != nil {
			return fmt.Errorf("cell %d result: %v", rec.Index, err)
		}
		// The trace column must match what ppc-sweep prints for the
		// equivalent local run: streamed cells carry their resolved trace
		// name in the result itself; inline bodies have no local name.
		traceName := spec.Trace
		switch {
		case spec.TraceSpec != nil || spec.TraceHash != "":
			traceName = res.Trace
		case traceName == "":
			traceName = "inline"
		}
		alg := spec.Algorithm
		if a, err := ppcsim.ParseAlgorithm(alg); err == nil {
			alg = string(a)
		}
		sched := ppcsim.CSCAN
		if spec.Scheduler != "" {
			d, err := ppcsim.ParseDiscipline(spec.Scheduler)
			if err != nil {
				return err
			}
			sched = d
		}
		hintFrac, hintAcc := 1.0, 1.0
		if spec.Hints != nil {
			hintFrac, hintAcc = spec.Hints.Fraction, spec.Hints.Accuracy
		}
		run := report.SweepRun{
			Trace: traceName, Algorithm: alg, Disks: intOr(spec.Disks, 1), Scheduler: sched.String(),
			CacheBlocks: intOr(spec.CacheBlocks, 0), Batch: spec.BatchSize, Horizon: spec.Horizon,
			HintFraction: hintFrac, HintAccuracy: hintAcc, Window: intOr(spec.Window, 0),
		}
		if err := cw.Write(report.SweepRow(run, res)); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func intOr(p *int, def int) int {
	if p != nil {
		return *p
	}
	return def
}
