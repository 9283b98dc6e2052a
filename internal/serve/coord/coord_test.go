package coord

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ppcsim/internal/serve"
)

// inlineTrace renders a small deterministic trace in the ppctrace text
// format, so jobs carry their workload inline and tests never wait on
// bundled trace generation.
func inlineTrace(name string, nBlocks, nRefs int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ppctrace %s false %d\n", name, nBlocks)
	fmt.Fprintf(&b, "file %d\n", nBlocks)
	for i := 0; i < nRefs; i++ {
		fmt.Fprintf(&b, "r %d 0.1\n", i%nBlocks)
	}
	return b.String()
}

// jobBody is the canonical test grid: 2 algorithms × 2 disk counts ×
// 2 cache sizes = 8 cells over one inline trace.
func jobBody(t *testing.T) string {
	t.Helper()
	return fmt.Sprintf(`{"trace_text":%q,"algorithms":["demand","aggressive"],"disk_counts":[1,2],"cache_sizes":[16,32]}`,
		inlineTrace("grid", 64, 300))
}

// stream is a parsed NDJSON job response.
type stream struct {
	status  int
	header  http.Header
	cells   []CellRecord
	summary *Summary
}

// submitJob posts a job and parses the NDJSON stream.
func submitJob(t *testing.T, url, body string) *stream {
	t.Helper()
	resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	st := &stream{status: resp.StatusCode, header: resp.Header}
	if resp.StatusCode != http.StatusOK {
		return st
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad NDJSON line: %v\n%s", err, line)
		}
		switch probe.Type {
		case "cell":
			var rec CellRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				t.Fatalf("bad cell record: %v\n%s", err, line)
			}
			st.cells = append(st.cells, rec)
		case "summary":
			if st.summary != nil {
				t.Fatal("two summary records in one stream")
			}
			var sum Summary
			if err := json.Unmarshal(line, &sum); err != nil {
				t.Fatalf("bad summary record: %v\n%s", err, line)
			}
			st.summary = &sum
		default:
			t.Fatalf("unknown record type %q", probe.Type)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return st
}

// singleNodeResults runs every cell of body's grid on a fresh
// standalone worker and returns index → exact response bytes — the
// byte-identity oracle for streamed results.
func singleNodeResults(t *testing.T, body string) map[int][]byte {
	t.Helper()
	spec, err := ParseJobSpec([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := spec.Cells(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{Workers: 2})
	defer srv.Close()
	out := make(map[int][]byte, len(cells))
	for _, c := range cells {
		req, err := json.Marshal(c.Spec)
		if err != nil {
			t.Fatal(err)
		}
		val, _, err := srv.RunJSONMeta(req)
		if err != nil {
			t.Fatalf("single-node cell %d: %v", c.Index, err)
		}
		out[c.Index] = val
	}
	return out
}

// checkExactlyOnceIdentical asserts every cell index streams exactly
// once with bytes equal to the single-node oracle.
func checkExactlyOnceIdentical(t *testing.T, st *stream, want map[int][]byte) {
	t.Helper()
	seen := make(map[int]int)
	for _, rec := range st.cells {
		seen[rec.Index]++
		if rec.Error != nil {
			t.Errorf("cell %d failed: %+v", rec.Index, rec.Error)
			continue
		}
		if !bytes.Equal(rec.Result, want[rec.Index]) {
			t.Errorf("cell %d not byte-identical to single-node run:\n%s\nvs\n%s",
				rec.Index, rec.Result, want[rec.Index])
		}
	}
	for idx := range want {
		if seen[idx] != 1 {
			t.Errorf("cell %d delivered %d times, want exactly once", idx, seen[idx])
		}
	}
	if len(st.cells) != len(want) {
		t.Errorf("%d cell records for %d cells", len(st.cells), len(want))
	}
}

// newHTTPWorker starts a real worker over HTTP and returns its backend.
func newHTTPWorker(t *testing.T, name string) (*serve.Server, *httptest.Server, Backend) {
	t.Helper()
	srv := serve.New(serve.Config{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts, NewHTTPBackend(name, ts.URL, nil)
}

// TestJobByteIdenticalAndExactlyOnce is the acceptance path: a grid
// sharded over two real HTTP workers — some cells colliding with warm
// worker caches — streams every cell exactly once, byte-identical to
// single-node runs.
func TestJobByteIdenticalAndExactlyOnce(t *testing.T) {
	body := jobBody(t)
	want := singleNodeResults(t, body)

	_, tsA, bA := newHTTPWorker(t, "a")
	_, tsB, bB := newHTTPWorker(t, "b")
	c, err := New(Config{Backends: []Backend{bA, bB}})
	if err != nil {
		t.Fatal(err)
	}
	coordTS := httptest.NewServer(c.Handler())
	defer coordTS.Close()

	// Warm both workers with the first two cells so the job collides with
	// hot result caches no matter which worker owns those keys.
	spec, _ := ParseJobSpec([]byte(body))
	cells, _ := spec.Cells(1 << 20)
	for _, cell := range cells[:2] {
		req, _ := json.Marshal(cell.Spec)
		for _, ts := range []*httptest.Server{tsA, tsB} {
			resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(req))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("warmup run: status %d", resp.StatusCode)
			}
		}
	}

	st := submitJob(t, coordTS.URL, body)
	if st.status != http.StatusOK {
		t.Fatalf("job status %d", st.status)
	}
	if st.header.Get("X-Job-Cache") != "miss" {
		t.Errorf("first submission X-Job-Cache %q, want miss", st.header.Get("X-Job-Cache"))
	}
	checkExactlyOnceIdentical(t, st, want)
	if st.summary == nil || !st.summary.Complete {
		t.Fatalf("incomplete job: %+v", st.summary)
	}
	if st.summary.CellsDone != len(want) || st.summary.CellsFailed != 0 {
		t.Errorf("summary: %+v", st.summary)
	}
	// The two warmed cells must have been answered by warm worker caches.
	if st.summary.CacheHits < 2 {
		t.Errorf("cache hits %d, want >= 2 (warmed cells)", st.summary.CacheHits)
	}
	// Both workers took a share of the grid (consistent hashing spreads 8
	// keys across 2 nodes; the fixed keys make this deterministic).
	if len(st.summary.Workers) != 2 {
		t.Errorf("worker shares %v, want both workers used", st.summary.Workers)
	}
	snap := c.Snapshot()
	if snap.CellsDone != int64(len(want)) || snap.CellsTotal != int64(len(want)) {
		t.Errorf("coordinator counters: %+v", snap)
	}
	if snap.ShardSkew < 1 {
		t.Errorf("shard skew %g, want >= 1", snap.ShardSkew)
	}
}

// killingProxy fronts a worker and, after `allow` successful /v1/run
// responses, hard-closes every subsequent run request's connection —
// the transport signature of a worker process killed mid-job.
func killingProxy(t *testing.T, inner http.Handler, allow int64) *httptest.Server {
	t.Helper()
	var served atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/run" && served.Add(1) > allow {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Error("response writer is not a Hijacker")
				return
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				t.Errorf("hijack: %v", err)
				return
			}
			conn.Close()
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestWorkerKilledMidJob: one of two workers dies after its first cell;
// the coordinator marks it dead, requeues its cells onto the survivor,
// and the stream still delivers every cell exactly once with
// byte-identical results.
func TestWorkerKilledMidJob(t *testing.T) {
	body := jobBody(t)
	want := singleNodeResults(t, body)

	srvA := serve.New(serve.Config{Workers: 2})
	defer srvA.Close()
	tsA := killingProxy(t, srvA.Handler(), 1)
	_, _, bB := newHTTPWorker(t, "b")
	bA := NewHTTPBackend("a", tsA.URL, nil)

	c, err := New(Config{Backends: []Backend{bA, bB}, PerBackend: 1, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	coordTS := httptest.NewServer(c.Handler())
	defer coordTS.Close()

	st := submitJob(t, coordTS.URL, body)
	if st.status != http.StatusOK {
		t.Fatalf("job status %d", st.status)
	}
	checkExactlyOnceIdentical(t, st, want)
	if st.summary == nil || !st.summary.Complete {
		t.Fatalf("incomplete job after worker death: %+v", st.summary)
	}
	if st.summary.CellsRetried == 0 {
		t.Error("no cells retried — the kill never bit, test is vacuous")
	}
	if got := st.summary.Workers["b"]; got < len(want)-1 {
		t.Errorf("survivor ran %d cells, want >= %d", got, len(want)-1)
	}
	if snap := c.Snapshot(); snap.CellsRetried == 0 {
		t.Errorf("coordinator retry counter: %+v", snap)
	}
}

// TestResubmitServedFromStore: an identical grid resubmitted to the
// coordinator is replayed entirely from the persisted store — zero
// recomputed cells, byte-identical stream — even across axis reorderings
// that expand to the same cell set, and even from a fresh coordinator
// sharing the same store directory.
func TestResubmitServedFromStore(t *testing.T) {
	body := jobBody(t)
	want := singleNodeResults(t, body)
	store, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	srvA, _, bA := newHTTPWorker(t, "a")
	srvB, _, bB := newHTTPWorker(t, "b")
	c, err := New(Config{Backends: []Backend{bA, bB}, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	coordTS := httptest.NewServer(c.Handler())
	defer coordTS.Close()

	first := submitJob(t, coordTS.URL, body)
	if first.summary == nil || !first.summary.Complete {
		t.Fatalf("first submission incomplete: %+v", first.summary)
	}
	ranBefore := srvA.Snapshot().Simulations + srvB.Snapshot().Simulations

	second := submitJob(t, coordTS.URL, body)
	if second.header.Get("X-Job-Cache") != "hit" {
		t.Errorf("resubmission X-Job-Cache %q, want hit", second.header.Get("X-Job-Cache"))
	}
	checkExactlyOnceIdentical(t, second, want)
	if second.summary == nil || !second.summary.Complete {
		t.Fatalf("resubmission incomplete: %+v", second.summary)
	}
	if second.summary.CellsFromStore != len(want) {
		t.Errorf("cells_from_store %d, want %d", second.summary.CellsFromStore, len(want))
	}
	for _, rec := range second.cells {
		if rec.Cache != "store" {
			t.Errorf("cell %d cache %q, want store", rec.Index, rec.Cache)
		}
	}
	// Zero recomputed cells: the workers ran nothing new.
	if ranAfter := srvA.Snapshot().Simulations + srvB.Snapshot().Simulations; ranAfter != ranBefore {
		t.Errorf("workers ran %d new simulations on resubmission, want 0", ranAfter-ranBefore)
	}
	snap := c.Snapshot()
	if snap.JobsFromStore != 1 || snap.CellsFromStore != int64(len(want)) {
		t.Errorf("store counters: %+v", snap)
	}

	// Axis order does not matter: the reversed grid expands to the same
	// cell set and therefore the same job key.
	reordered := fmt.Sprintf(`{"trace_text":%q,"algorithms":["aggressive","demand"],"disk_counts":[2,1],"cache_sizes":[32,16]}`,
		inlineTrace("grid", 64, 300))
	third := submitJob(t, coordTS.URL, reordered)
	if third.header.Get("X-Job-Cache") != "hit" {
		t.Errorf("reordered grid X-Job-Cache %q, want hit", third.header.Get("X-Job-Cache"))
	}
	if third.summary == nil || third.summary.CellsFromStore != len(want) {
		t.Errorf("reordered grid not fully from store: %+v", third.summary)
	}

	// Persistence survives a coordinator restart: a fresh coordinator on
	// the same directory replays the grid without touching its fleet.
	c2, err := New(Config{Backends: []Backend{bA, bB}, Store: mustDirStore(t, store.dir)})
	if err != nil {
		t.Fatal(err)
	}
	coordTS2 := httptest.NewServer(c2.Handler())
	defer coordTS2.Close()
	fourth := submitJob(t, coordTS2.URL, body)
	if fourth.header.Get("X-Job-Cache") != "hit" {
		t.Errorf("restarted coordinator X-Job-Cache %q, want hit", fourth.header.Get("X-Job-Cache"))
	}
	checkExactlyOnceIdentical(t, fourth, want)
}

func mustDirStore(t *testing.T, dir string) *DirStore {
	t.Helper()
	s, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestEmbeddedSingleProcess: the coordinator with embedded in-process
// workers — one binary, no sockets — serves the same byte-identical
// grid, and its /v1/run proxy routes singles to the owning shard.
func TestEmbeddedSingleProcess(t *testing.T) {
	body := jobBody(t)
	want := singleNodeResults(t, body)

	backends, closeAll := NewEmbeddedBackends(2, serve.Config{Workers: 2})
	defer closeAll()
	c, err := New(Config{Backends: backends})
	if err != nil {
		t.Fatal(err)
	}
	coordTS := httptest.NewServer(c.Handler())
	defer coordTS.Close()

	st := submitJob(t, coordTS.URL, body)
	checkExactlyOnceIdentical(t, st, want)
	if st.summary == nil || !st.summary.Complete {
		t.Fatalf("embedded job incomplete: %+v", st.summary)
	}

	// Proxy path: a single run through the coordinator lands on the shard
	// owning its key, and a repeat hits that shard's (already warm) cache.
	spec, _ := ParseJobSpec([]byte(body))
	cells, _ := spec.Cells(1 << 20)
	req, _ := json.Marshal(cells[0].Spec)
	resp, err := http.Post(coordTS.URL+"/v1/run", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxy run status %d: %s", resp.StatusCode, buf.Bytes())
	}
	if resp.Header.Get("X-Worker") == "" {
		t.Error("proxy response without X-Worker")
	}
	if resp.Header.Get("X-Cache") != "hit" {
		t.Errorf("proxy X-Cache %q, want hit (the job warmed this key's shard)", resp.Header.Get("X-Cache"))
	}
	if !bytes.Equal(buf.Bytes(), want[0]) {
		t.Errorf("proxied run not byte-identical to single-node run")
	}
	if c.Snapshot().ProxiedRuns != 1 {
		t.Errorf("proxied_runs %d, want 1", c.Snapshot().ProxiedRuns)
	}
}

// TestJobBoundaries: every malformed or out-of-range job draws a 400
// envelope naming the offending field before any worker is touched.
func TestJobBoundaries(t *testing.T) {
	backends, closeAll := NewEmbeddedBackends(1, serve.Config{Workers: 1})
	defer closeAll()
	c, err := New(Config{Backends: backends, MaxCells: 16})
	if err != nil {
		t.Fatal(err)
	}
	coordTS := httptest.NewServer(c.Handler())
	defer coordTS.Close()

	cases := []struct {
		name  string
		body  string
		field string
	}{
		{"empty body", ``, "JobSpec"},
		{"bad json", `{`, "JobSpec"},
		{"trailing data", `{"trace":"synth","algorithms":["demand"]} extra`, "JobSpec"},
		{"unknown field", `{"trace":"synth","algorithms":["demand"],"bogus":1}`, "JobSpec"},
		{"no algorithms", `{"trace":"synth"}`, "Algorithms"},
		{"both algorithm forms", `{"trace":"synth","algorithm":"demand","algorithms":["demand"]}`, "Algorithms"},
		{"unknown algorithm in axis", `{"trace":"synth","algorithms":["demand","nosuch"]}`, "Algorithm"},
		{"disks and disk_counts", `{"trace":"synth","algorithms":["demand"],"disks":2,"disk_counts":[1,2]}`, "DiskCounts"},
		{"zero disk count", `{"trace":"synth","algorithms":["demand"],"disk_counts":[1,0]}`, "DiskCounts"},
		{"negative cache size", `{"trace":"synth","algorithms":["demand"],"cache_sizes":[-4]}`, "CacheSizes"},
		{"zero window", `{"trace":"synth","algorithms":["fixed-horizon"],"windows":[0]}`, "Windows"},
		{"window and windows", `{"trace":"synth","algorithms":["fixed-horizon"],"window":8,"windows":[8]}`, "Windows"},
		{"negative timeout", `{"trace":"synth","algorithms":["demand"],"timeout_ms":-1}`, "TimeoutMs"},
		{"no trace", `{"algorithms":["demand"]}`, "Trace"},
		{"both traces", `{"trace":"synth","trace_text":"x","algorithms":["demand"]}`, "Trace"},
		{"bad scheduler", `{"trace":"synth","algorithms":["demand"],"scheduler":"sstf"}`, "Scheduler"},
		{"grid too large", `{"trace":"synth","algorithms":["demand"],"disk_counts":[1,2,3,4,5],"cache_sizes":[8,16,32,64]}`, "JobSpec"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(coordTS.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			var env serve.ErrorEnvelope
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Fatalf("non-envelope 400 body: %v", err)
			}
			if env.Error.Field != tc.field {
				t.Errorf("field %q, want %q (message: %s)", env.Error.Field, tc.field, env.Error.Message)
			}
			if env.Error.Code != serve.CodeInvalidRequest {
				t.Errorf("code %q, want invalid_request", env.Error.Code)
			}
		})
	}
}

// TestPermanentCellFailure: a grid whose cells are valid at the job
// boundary but rejected by the worker (window with an algorithm that
// takes no hints) fails those cells permanently — no retry storm — and
// the summary reports an incomplete job that is not persisted.
func TestPermanentCellFailure(t *testing.T) {
	backends, closeAll := NewEmbeddedBackends(2, serve.Config{Workers: 1})
	defer closeAll()
	store := NewMemStore()
	c, err := New(Config{Backends: backends, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	coordTS := httptest.NewServer(c.Handler())
	defer coordTS.Close()

	// reverse-aggressive rejects a window shorter than the trace; that
	// rule needs the inline trace's length, which the job boundary does
	// not parse, so the bad cell surfaces as a per-cell 400.
	body := fmt.Sprintf(`{"trace_text":%q,"algorithms":["demand","reverse-aggressive"],"windows":[8]}`,
		inlineTrace("pf", 32, 100))
	st := submitJob(t, coordTS.URL, body)
	if st.status != http.StatusOK {
		t.Fatalf("job status %d", st.status)
	}
	if st.summary == nil || st.summary.Complete {
		t.Fatalf("job with failing cells reported complete: %+v", st.summary)
	}
	if st.summary.CellsFailed != 1 || st.summary.CellsDone != 1 {
		t.Errorf("summary: %+v", st.summary)
	}
	var failed *CellRecord
	for i := range st.cells {
		if st.cells[i].Error != nil {
			failed = &st.cells[i]
		}
	}
	if failed == nil {
		t.Fatal("no failed cell record streamed")
	}
	if failed.Error.Field != "Hints" {
		t.Errorf("failed cell error field %q, want Hints", failed.Error.Field)
	}
	if _, ok, _ := store.Load(JobKey(mustCells(t, body))); ok {
		t.Error("incomplete job was persisted")
	}
}

func mustCells(t *testing.T, body string) []Cell {
	t.Helper()
	spec, err := ParseJobSpec([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := spec.Cells(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	return cells
}
