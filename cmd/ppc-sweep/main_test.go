package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"ppcsim"
	"ppcsim/internal/serve"
	"ppcsim/internal/serve/coord"
	"ppcsim/internal/serve/tracestore"
)

// sweepCSV runs ppc-sweep's command line and returns its CSV.
func sweepCSV(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out, errOut bytes.Buffer
	err := run(args, &out, &errOut)
	return out.String(), err
}

// TestParallelSweepDeterministic: the CSV must be byte-identical no
// matter how many workers run the sweep.
func TestParallelSweepDeterministic(t *testing.T) {
	grid := []string{"-traces", "synth,xds", "-algs", "demand,forestall,aggressive", "-disks", "1,3",
		"-scheds", "cscan,fcfs", "-batches", "0,16"}
	serial, err := sweepCSV(t, append(grid, "-parallel", "1")...)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Count(serial, "\n"), 2*3*2*2*2+1; got != want {
		t.Fatalf("serial sweep wrote %d rows, want %d", got, want)
	}
	for _, parallel := range []string{"2", "8"} {
		par, err := sweepCSV(t, append(grid, "-parallel", parallel)...)
		if err != nil {
			t.Fatal(err)
		}
		if par != serial {
			t.Errorf("-parallel %s output differs from -parallel 1", parallel)
		}
	}
}

func TestSweepSplitHelpers(t *testing.T) {
	if got := splitList(" a, ,b ,"); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("splitList: %v", got)
	}
	if got := splitList(""); got != nil {
		t.Errorf("splitList empty: %v", got)
	}
	ints, err := splitInts("4, 8")
	if err != nil || len(ints) != 2 || ints[1] != 8 {
		t.Errorf("splitInts: %v %v", ints, err)
	}
	if _, err := splitInts("4,?"); err == nil {
		t.Error("splitInts accepted a non-integer")
	}
	if vals, err := axis("0"); err != nil || vals != nil {
		t.Errorf("axis(0) = %v %v, want no axis", vals, err)
	}
	if vals, err := axis("0,16"); err != nil || len(vals) != 2 {
		t.Errorf("axis(0,16) = %v %v, want both values", vals, err)
	}
	if got := all([]string{"all"}, ppcsim.Algorithms); len(got) != len(ppcsim.Algorithms) {
		t.Errorf("all: %v", got)
	}
	if v := 7; intOr(&v, 1) != 7 || intOr(nil, 1) != 1 {
		t.Error("intOr")
	}
}

// TestSweepStreamsLargeSpec: a -large grid expands under the spec's
// resolved name, streams every cell (no materialized trace), and
// renders the same CSV serial or parallel.
func TestSweepStreamsLargeSpec(t *testing.T) {
	grid := []string{"-large", "2000:256:zipf:7", "-window", "64", "-algs", "demand,aggressive", "-disks", "1"}
	sw, err := parseArgs(grid)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := sw.spec.Cells(coord.MaxCells)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(cells))
	}
	for _, c := range cells {
		opts, cleanup, err := c.Spec.BuildOptions(serve.SourceEnv{})
		if err != nil {
			t.Fatal(err)
		}
		cleanup()
		if opts.Trace != nil || opts.Source == nil {
			t.Errorf("cell %d: %+v, want a streamed source, no materialized trace", c.Index, opts)
		}
	}

	name := ppcsim.LargeTraceSpec{Refs: 2000, Blocks: 256, Pattern: "zipf", Seed: 7}.ResolvedName()
	csv, err := sweepCSV(t, append(grid, "-parallel", "2")...)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want header + 2 rows:\n%s", len(lines), csv)
	}
	if !strings.HasPrefix(lines[1], name+",demand,1,CSCAN,") ||
		!strings.HasPrefix(lines[2], name+",aggressive,1,CSCAN,") {
		t.Errorf("rows:\n%s\n%s", lines[1], lines[2])
	}

	again, err := sweepCSV(t, append(grid, "-parallel", "0")...)
	if err != nil {
		t.Fatal(err)
	}
	if again != csv {
		t.Error("parallel and serial streamed sweeps rendered different CSV")
	}

	// An unknown bundled trace fails before sweeping.
	if out, err := sweepCSV(t, "-traces", "no-such-trace", "-algs", "demand", "-disks", "1"); err == nil || out != "" {
		t.Errorf("unknown trace swept: err %v, output %q", err, out)
	}
}

// TestSweepReportsConfigErrors: a bad grid point surfaces the offending
// configuration instead of a bare error.
func TestSweepReportsConfigErrors(t *testing.T) {
	_, err := sweepCSV(t, "-traces", "synth", "-algs", "demand", "-disks", "-1", "-parallel", "4")
	if err == nil {
		t.Fatal("negative disk count should fail the sweep")
	}
	if !strings.Contains(err.Error(), "synth/demand/d=-1") {
		t.Errorf("error %q does not name the failing configuration", err)
	}
	// A zero disk count, and a cache axis that mixes the default with
	// sizes, are configuration errors as they are on the wire.
	for _, args := range [][]string{
		{"-traces", "xds", "-algs", "demand", "-disks", "0"},
		{"-traces", "xds", "-algs", "demand", "-disks", "1", "-caches", "0,640"},
	} {
		out, err := sweepCSV(t, args...)
		var ce *ppcsim.ConfigError
		if !errors.As(err, &ce) || out != "" {
			t.Errorf("%v: err %v, output %q; want a ConfigError and no output", args, err, out)
		}
	}
}

// TestSweepValidatesTimeout: the grid built from flags passes the
// job-level rules a coordinator applies, so a negative or NaN
// -timeout-ms is a ConfigError (exit 2) before any cell runs, as a
// coordinator rejects the same timeout with a 400.
func TestSweepValidatesTimeout(t *testing.T) {
	for _, v := range []string{"-1", "NaN"} {
		out, err := sweepCSV(t, "-traces", "ld", "-algs", "demand", "-timeout-ms", v)
		var ce *ppcsim.ConfigError
		if !errors.As(err, &ce) || ce.Field != "TimeoutMs" || out != "" {
			t.Errorf("-timeout-ms %s: err %v, output %q; want a ConfigError on TimeoutMs and no output", v, err, out)
		}
	}
}

// TestSweepAxisErrorsNameTheFlag: a non-positive value listed in -window
// or -caches is rejected in the flags' own terms, where a lone 0 is the
// default, not in the wire's.
func TestSweepAxisErrorsNameTheFlag(t *testing.T) {
	for _, c := range []struct{ flag, val, field string }{
		{"-window", "-5", "Window"},
		{"-window", "0,64", "Window"},
		{"-caches", "0,640", "CacheBlocks"},
	} {
		out, err := sweepCSV(t, "-traces", "xds", "-algs", "demand", "-disks", "1", c.flag, c.val)
		var ce *ppcsim.ConfigError
		if !errors.As(err, &ce) || ce.Field != c.field || out != "" {
			t.Errorf("%s %s: err %v, output %q; want a ConfigError on %s and no output", c.flag, c.val, err, out, c.field)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, c.flag+" values must be positive") ||
			!strings.Contains(msg, "a lone 0 selects the default") || strings.Contains(msg, "omit the field") {
			t.Errorf("%s %s: error %q is not worded for the flag", c.flag, c.val, msg)
		}
	}
}

// TestSweepValidatesBeforeRunning: a -large sweep whose last algorithm
// cannot stream is rejected with a ConfigError naming that cell before
// any cell runs, so nothing is written, not even the CSV header.
func TestSweepValidatesBeforeRunning(t *testing.T) {
	out, err := sweepCSV(t, "-large", "2000:256:zipf:7", "-window", "64",
		"-algs", "demand,aggressive,reverse-aggressive", "-disks", "1,2", "-parallel", "2")
	var ce *ppcsim.ConfigError
	if !errors.As(err, &ce) || ce.Field != "Algorithm" {
		t.Fatalf("err = %v, want a ConfigError on Algorithm", err)
	}
	name := ppcsim.LargeTraceSpec{Refs: 2000, Blocks: 256, Pattern: "zipf", Seed: 7}.ResolvedName()
	if want := name + "/reverse-aggressive/d=1"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name %s", err, want)
	}
	if out != "" {
		t.Errorf("rejected sweep wrote %q", out)
	}
}

// TestLargeSpecValidated: -large rejects a block count below 2 before
// converting it to the wire spec, whose zero blocks would otherwise
// default to 65536.
func TestLargeSpecValidated(t *testing.T) {
	for _, large := range []string{"2000:0:zipf:1", "2000:1"} {
		for _, mode := range [][]string{nil, {"-coord", "http://127.0.0.1:1"}} {
			args := append([]string{"-large", large, "-window", "64", "-algs", "demand"}, mode...)
			out, err := sweepCSV(t, args...)
			var ce *ppcsim.ConfigError
			if !errors.As(err, &ce) || ce.Field != "Trace" || out != "" {
				t.Errorf("%v: err %v, output %q; want a ConfigError on Trace and no output", args, err, out)
			}
		}
	}
}

func TestBuildSpecVariants(t *testing.T) {
	parse := func(t *testing.T, args ...string) *coord.JobSpec {
		t.Helper()
		sw, err := parseArgs(args)
		if err != nil {
			t.Fatal(err)
		}
		return sw.spec
	}

	// Bundled-name grid with hints and axes; lone zeros are no axis.
	js := parse(t, "-traces", "synth", "-algs", "demand,aggressive", "-disks", "1,2", "-caches", "500",
		"-window", "64", "-scheds", "fcfs", "-hint-fraction", "0.5", "-hint-accuracy", "0.9", "-timeout-ms", "250")
	if len(js.Traces) != 1 || len(js.Algorithms) != 2 || len(js.DiskCounts) != 2 || len(js.Windows) != 1 ||
		js.Schedulers[0] != "fcfs" || js.TimeoutMs != 250 || js.BatchSizes != nil || js.Horizons != nil {
		t.Errorf("bundled spec: %+v", js)
	}
	if js.Hints == nil || js.Hints.Fraction != 0.5 || js.Hints.Accuracy != 0.9 {
		t.Errorf("hints: %+v", js.Hints)
	}
	if js = parse(t, "-traces", "all", "-algs", "all"); len(js.Traces) != len(ppcsim.TraceNames) ||
		len(js.Algorithms) != len(ppcsim.Algorithms) || js.CacheSizes != nil || js.Windows != nil {
		t.Errorf("'all' spec: %+v", js)
	}

	// Generator spec: -large rides as trace_spec, no trace name.
	js = parse(t, "-large", "1000:64:zipf:3", "-algs", "demand", "-window", "32")
	if js.Traces != nil || js.TraceSpec == nil || js.TraceSpec.Refs != 1000 || js.TraceSpec.Pattern != "zipf" {
		t.Errorf("large spec: %+v", js)
	}
	if js.Hints != nil {
		t.Error("default hints must stay unset")
	}

	// A trace file rides as its store hash.
	path := filepath.Join(t.TempDir(), "t.ppccol")
	if err := os.WriteFile(path, []byte("columnar bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	js = parse(t, "-trace-file", path, "-algs", "demand", "-window", "32")
	if js.Traces != nil || js.TraceHash != tracestore.HashBytes([]byte("columnar bytes")) {
		t.Errorf("hash spec: %+v", js)
	}

	// Bad axis integers and two trace sources are rejected.
	if _, err := parseArgs([]string{"-disks", "1,x"}); err == nil {
		t.Error("bad disk count accepted")
	}
	if _, err := parseArgs([]string{"-traces", "xds", "-large", "1000"}); err == nil {
		t.Error("-traces with -large accepted")
	}

	// -spec reads the grid from a file and checks its wire rules.
	spec := filepath.Join(t.TempDir(), "job.json")
	if err := os.WriteFile(spec, []byte(`{"traces":["xds"],"algorithm":"demand","horizons":[20,40]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if js = parse(t, "-spec", spec, "-traces", "synth"); len(js.Traces) != 1 || js.Traces[0] != "xds" || len(js.Horizons) != 2 {
		t.Errorf("spec file: %+v", js)
	}
	if err := os.WriteFile(spec, []byte(`{"trace":"xds","traces":["xds"],"algorithm":"demand"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := parseArgs([]string{"-spec", spec}); err == nil {
		t.Error("spec file with trace and traces accepted")
	}
}

func TestRetryDo(t *testing.T) {
	refused := &url.Error{Op: "Post", URL: "http://coord", Err: errors.New("refused")}
	calls := 0
	resp, err := retryDo(0, func() (*http.Response, error) {
		calls++
		return &http.Response{StatusCode: 200}, nil
	})
	if err != nil || resp.StatusCode != 200 || calls != 1 {
		t.Errorf("immediate success: %v %v calls=%d", resp, err, calls)
	}

	calls = 0
	if _, err := retryDo(0, func() (*http.Response, error) {
		calls++
		return nil, refused
	}); err == nil || calls != 1 {
		t.Errorf("zero budget must not retry: %v calls=%d", err, calls)
	}

	calls = 0
	if _, err := retryDo(300e6, func() (bool, error) {
		calls++
		return false, errors.New("trace probe: status 502")
	}); err == nil || calls != 1 {
		t.Errorf("a failure with a response must not retry: %v calls=%d", err, calls)
	}

	calls = 0
	resp, err = retryDo(300e6, func() (*http.Response, error) { // 300ms budget
		calls++
		if calls < 3 {
			return nil, refused
		}
		return &http.Response{StatusCode: 200}, nil
	})
	if err != nil || resp.StatusCode != 200 || calls != 3 {
		t.Errorf("retry until success: %v %v calls=%d", resp, err, calls)
	}
}

func TestEnsureTrace(t *testing.T) {
	blob := []byte("columnar bytes for hashing")
	path := filepath.Join(t.TempDir(), "t.ppccol")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	tf, err := serve.HashTraceFile(path)
	if err != nil || tf.Hash != tracestore.HashBytes(blob) {
		t.Fatalf("HashTraceFile = %+v %v", tf, err)
	}
	hash := tf.Hash

	var headStatus int
	var putBody []byte
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/traces/"+hash {
			t.Errorf("unexpected path %s", r.URL.Path)
		}
		switch r.Method {
		case http.MethodHead:
			w.WriteHeader(headStatus)
		case http.MethodPut:
			b := new(bytes.Buffer)
			b.ReadFrom(r.Body)
			putBody = b.Bytes()
			w.WriteHeader(http.StatusCreated)
		}
	}))
	defer ts.Close()
	var log bytes.Buffer

	// Already held: HEAD 204, no upload.
	headStatus, putBody = http.StatusNoContent, nil
	if err := ensureTrace(ts.URL, path, hash, 0, &log); err != nil || putBody != nil {
		t.Errorf("held trace: %v upload=%d bytes", err, len(putBody))
	}

	// Missing: HEAD 404 then PUT of the exact file bytes.
	headStatus = http.StatusNotFound
	if err := ensureTrace(ts.URL, path, hash, 0, &log); err != nil || !bytes.Equal(putBody, blob) {
		t.Errorf("uploaded trace: %v bytes equal=%v", err, bytes.Equal(putBody, blob))
	}

	// Unexpected probe status is an error.
	headStatus = http.StatusBadGateway
	if err := ensureTrace(ts.URL, path, hash, 0, &log); err == nil {
		t.Error("502 probe accepted")
	}

	// A missing file fails.
	if _, err := serve.HashTraceFile(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Error("absent file accepted")
	}
}

// fakeStream renders NDJSON the way a coordinator would.
func fakeStream(t *testing.T, recs []coord.CellRecord, sum *coord.Summary) string {
	t.Helper()
	var b strings.Builder
	for _, rec := range recs {
		rec.Type = "cell"
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	if sum != nil {
		sum.Type = "summary"
		line, err := json.Marshal(sum)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.String()
}

func TestStreamCSV(t *testing.T) {
	spec, err := coord.ParseJobSpec([]byte(`{"trace_spec":{"refs":100,"blocks":16},"algorithms":["demand","aggressive"],"windows":[8]}`))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := spec.Cells(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	res := []byte(`{"Trace":"large-loop-100","ElapsedSec":1.25,"ComputeSec":1,"StallTimeSec":0.25,"DriverTimeSec":0.1,"Fetches":42,"AvgFetchMs":9.5,"AvgResponseMs":10.25,"AvgUtilization":0.5}`)
	recs := []coord.CellRecord{
		{Index: 1, Key: "k1", Result: res},
		{Index: 0, Key: "k0", Result: res},
	}
	sum := &coord.Summary{Complete: true, CellsTotal: 2, CellsDone: 2}

	// Cells arrive in completion order and render in index order, in the
	// sweep dialect, naming streamed cells by the result's trace.
	results, got, err := collect(strings.NewReader(fakeStream(t, recs, sum)), cells, &bytes.Buffer{})
	if err != nil || got == nil || !got.Complete {
		t.Fatalf("collect: %+v %v", got, err)
	}
	var csvOut bytes.Buffer
	if err := writeCSV(&csvOut, cells, results); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvOut.String()), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "trace,algorithm,") {
		t.Fatalf("csv output:\n%s", csvOut.String())
	}
	if !strings.HasPrefix(lines[1], "large-loop-100,demand,1,CSCAN,") ||
		!strings.HasPrefix(lines[2], "large-loop-100,aggressive,") {
		t.Errorf("csv rows out of order or misnamed:\n%s", csvOut.String())
	}
	if !strings.Contains(lines[1], ",1.2500,") || !strings.Contains(lines[1], ",9.500,") {
		t.Errorf("csv formatting drifted from the sweep dialect:\n%s", lines[1])
	}

	// A malformed line is a hard error.
	if _, _, err := collect(strings.NewReader("not json\n"), cells, &bytes.Buffer{}); err == nil {
		t.Error("malformed stream line accepted")
	}

	// An out-of-grid index is a hard error.
	bad := fakeStream(t, []coord.CellRecord{{Index: 99, Result: res}}, sum)
	if _, _, err := collect(strings.NewReader(bad), cells, &bytes.Buffer{}); err == nil {
		t.Error("out-of-grid cell index accepted")
	}

	// Failed cells are reported on stderr and skipped, so the grid still
	// renders the rows that completed.
	withFail := fakeStream(t, []coord.CellRecord{
		{Index: 0, Result: res},
		{Index: 1, Error: &serve.ErrorDetail{Message: "boom"}},
	}, sum)
	var stderr bytes.Buffer
	results, _, err = collect(strings.NewReader(withFail), cells, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	var partial bytes.Buffer
	if err := writeCSV(&partial, cells, results); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(strings.TrimSpace(partial.String()), "\n"); n != 1 {
		t.Errorf("failed cell rendered: %d data rows, want 1\n%s", n, partial.String())
	}
	if !strings.Contains(stderr.String(), "cell 1 failed: boom") {
		t.Errorf("failed cell not reported: %q", stderr.String())
	}
}

// TestClusterMatchesLocal: the same command line, run locally and with
// -coord against a two-worker coordinator, writes byte-identical CSV.
// A columnar trace file, uploaded by hash, runs like the generator that
// wrote it.
func TestClusterMatchesLocal(t *testing.T) {
	large := ppcsim.LargeTraceSpec{Refs: 2000, Blocks: 256, Pattern: "zipf", Seed: 7}
	src, err := large.Source()
	if err != nil {
		t.Fatal(err)
	}
	var col bytes.Buffer
	if _, err := ppcsim.WriteColumnarTrace(&col, src); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "zipf.ppccol")
	if err := os.WriteFile(path, col.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	var backends []coord.Backend
	for i := 0; i < 2; i++ {
		w := serve.New(serve.Config{Workers: 1, TraceStoreDir: t.TempDir()})
		defer w.Close()
		backends = append(backends, coord.NewLocalBackend(fmt.Sprintf("worker-%d", i), w))
	}
	co, err := coord.New(coord.Config{Backends: backends})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(co.Handler())
	defer ts.Close()

	var streamed string
	for _, grid := range [][]string{
		// Every axis present: traces, algorithms, disk counts, schedulers,
		// cache sizes, windows, batch sizes and horizons.
		{"-traces", "ld,postgres-select", "-algs", "demand,forestall", "-disks", "1,2", "-scheds", "fcfs",
			"-caches", "640", "-window", "128", "-batches", "0,8", "-horizons", "40"},
		{"-large", "2000:256:zipf:7", "-window", "32,64", "-algs", "demand,aggressive", "-disks", "1,2"},
		{"-trace-file", path, "-window", "32,64", "-algs", "demand,aggressive", "-disks", "1,2"},
	} {
		local, err := sweepCSV(t, grid...)
		if err != nil {
			t.Fatal(err)
		}
		var cluster, stderr bytes.Buffer
		if err := run(append(grid, "-coord", ts.URL), &cluster, &stderr); err != nil {
			t.Fatalf("%v -coord: %v\n%s", grid, err, stderr.String())
		}
		if cluster.String() != local {
			t.Errorf("%v: cluster CSV differs from local:\n%s\nlocal:\n%s", grid, cluster.String(), local)
		}
		if rows := strings.Count(local, "\n"); rows != 17 && rows != 9 {
			t.Errorf("%v: %d lines", grid, rows)
		}
		if grid[0] == "-large" {
			streamed = local
		} else if grid[0] == "-trace-file" && local != streamed {
			t.Errorf("-trace-file CSV differs from the generator's:\n%s\ngenerator:\n%s", local, streamed)
		}
	}
}

// TestLocalTimeout: -timeout-ms caps each local cell as it caps a
// worker's, and a cell that runs past it fails the sweep.
func TestLocalTimeout(t *testing.T) {
	_, err := sweepCSV(t, "-traces", "synth", "-algs", "aggressive", "-disks", "1", "-timeout-ms", "0.001")
	var ce *ppcsim.ConfigError
	if err == nil || errors.As(err, &ce) || !strings.Contains(err.Error(), "synth/aggressive/d=1") {
		t.Errorf("err = %v, want a named runtime failure", err)
	}
}

// TestGridBoundBothModes: a grid over coord.MaxCells is a ConfigError
// on JobSpec locally and with -coord alike, and the cluster run fails
// before anything reaches the coordinator.
func TestGridBoundBothModes(t *testing.T) {
	var posted atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		posted.Add(1)
		http.Error(w, "unexpected request", http.StatusBadRequest)
	}))
	defer ts.Close()

	caches := make([]string, coord.MaxCells/32+1)
	for i := range caches {
		caches[i] = strconv.Itoa(i + 2)
	}
	grid := []string{"-traces", "xds", "-algs", "demand,forestall", "-disks", "1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16",
		"-caches", strings.Join(caches, ",")} // 2 × 16 × 513 cells
	for _, mode := range [][]string{{"-coord", ts.URL}, nil} {
		out, err := sweepCSV(t, append(grid, mode...)...)
		var ce *ppcsim.ConfigError
		if !errors.As(err, &ce) || ce.Field != "JobSpec" || out != "" {
			t.Fatalf("%v: err %v, output %q; want a ConfigError on JobSpec and no output", mode, err, out)
		}
	}
	if n := posted.Load(); n != 0 {
		t.Errorf("the coordinator got %d requests for an over-bound grid", n)
	}
}
