package coord

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ppcsim"
	"ppcsim/internal/serve"
	"ppcsim/internal/serve/tracestore"
	"ppcsim/internal/trace"
)

// materializeSpec drains a generator spec into a fully resident trace —
// the reference workload every streamed result must match byte for byte.
func materializeSpec(t *testing.T, spec ppcsim.LargeTraceSpec) *ppcsim.Trace {
	t.Helper()
	src, err := spec.Source()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ppcsim.MaterializeTrace(src)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// nopSeekCloser adapts a bytes.Reader to the store-handle interface the
// oracle's SourceEnv needs.
type nopSeekCloser struct{ *bytes.Reader }

func (nopSeekCloser) Close() error { return nil }

// materializedResults is the conformance oracle: every cell of the grid
// assembled through the same option-mapping the workers use, but run on
// the fully materialized trace via the library — no streaming anywhere —
// and marshaled exactly as a worker response body. blob is the columnar
// encoding backing trace_hash cells (nil for generator grids).
func materializedResults(t *testing.T, body string, tr *ppcsim.Trace, blob []byte) map[int][]byte {
	t.Helper()
	cells := mustCells(t, body)
	env := serve.SourceEnv{
		OpenHash: func(string) (io.ReadSeekCloser, error) {
			return nopSeekCloser{bytes.NewReader(blob)}, nil
		},
	}
	out := make(map[int][]byte, len(cells))
	for _, c := range cells {
		opts, cleanup, err := c.Spec.BuildOptions(env)
		if err != nil {
			t.Fatalf("cell %d options: %v", c.Index, err)
		}
		opts.Source = nil
		opts.Trace = tr
		res, err := ppcsim.Run(opts)
		cleanup()
		if err != nil {
			t.Fatalf("cell %d materialized run: %v", c.Index, err)
		}
		val, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		out[c.Index] = val
	}
	return out
}

// TestStreamedJobMatchesMaterializedRuns is the streaming conformance
// acceptance: a generator-spec grid sharded over two real HTTP workers
// — every cell streamed, nothing materialized anywhere in the serving
// path — delivers each cell exactly once, byte-identical to the same
// cell run locally on the fully materialized trace. Both generator
// patterns are covered, and every computed cell must carry the
// streaming observations (throughput, peak heap) as transport metadata.
func TestStreamedJobMatchesMaterializedRuns(t *testing.T) {
	for _, tc := range []struct {
		pattern string
		seed    int64
	}{
		{"zipf", 11},
		{"loop", 0},
	} {
		t.Run(tc.pattern, func(t *testing.T) {
			body := fmt.Sprintf(
				`{"trace_spec":{"refs":24000,"blocks":1024,"pattern":%q,"seed":%d},"algorithms":["demand","aggressive","forestall"],"disk_counts":[1,2],"windows":[64,256]}`,
				tc.pattern, tc.seed)
			tr := materializeSpec(t, ppcsim.LargeTraceSpec{Refs: 24000, Blocks: 1024, Pattern: tc.pattern, Seed: tc.seed})
			want := materializedResults(t, body, tr, nil)

			_, _, bA := newHTTPWorker(t, "a")
			_, _, bB := newHTTPWorker(t, "b")
			c, err := New(Config{Backends: []Backend{bA, bB}})
			if err != nil {
				t.Fatal(err)
			}
			coordTS := httptestNewServer(t, c)

			st := submitJob(t, coordTS, body)
			if st.status != http.StatusOK {
				t.Fatalf("job status %d", st.status)
			}
			checkExactlyOnceIdentical(t, st, want)
			if st.summary == nil || !st.summary.Complete {
				t.Fatalf("incomplete job: %+v", st.summary)
			}
			if len(st.summary.Workers) != 2 {
				t.Errorf("worker shares %v, want both workers used", st.summary.Workers)
			}
			keys := make(map[string]bool, len(st.cells))
			for _, rec := range st.cells {
				if rec.Cache != "miss" {
					t.Errorf("cell %d cache %q, want miss on fresh workers", rec.Index, rec.Cache)
				}
				if rec.RefsPerSec <= 0 || rec.PeakInuseBytes <= 0 {
					t.Errorf("streamed cell %d missing observations: refs/sec %g, peak %d",
						rec.Index, rec.RefsPerSec, rec.PeakInuseBytes)
				}
				if rec.Key == "" || keys[rec.Key] {
					t.Errorf("cell %d key %q empty or duplicated", rec.Index, rec.Key)
				}
				keys[rec.Key] = true
			}
		})
	}
}

// httptestNewServer wraps the coordinator handler in a test server with
// cleanup, returning its base URL.
func httptestNewServer(t *testing.T, c *Coordinator) string {
	t.Helper()
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestHashNamedJobReplicatesAndMatches drives the content-addressed
// path end to end: the client uploads the columnar blob once, to the
// coordinator; job preflight replicates it to the worker that missed
// it; every cell streams from the store byte-identical to the
// materialized oracle; and an identical resubmission replays entirely
// from the job store with zero new simulations and zero fresh
// streaming telemetry.
func TestHashNamedJobReplicatesAndMatches(t *testing.T) {
	tr := materializeSpec(t, ppcsim.LargeTraceSpec{Refs: 20000, Blocks: 512, Pattern: "zipf", Seed: 7})
	var col bytes.Buffer
	if _, err := trace.WriteColumnar(&col, tr.Source()); err != nil {
		t.Fatal(err)
	}
	hash := tracestore.HashBytes(col.Bytes())

	srvA, _, bA := newHTTPWorker(t, "a")
	srvB, _, bB := newHTTPWorker(t, "b")
	c, err := New(Config{Backends: []Backend{bA, bB}, Store: NewMemStore()})
	if err != nil {
		t.Fatal(err)
	}
	coordTS := httptestNewServer(t, c)

	// Upload once, to the coordinator: it lands on the hash's ring owner.
	req, err := http.NewRequest(http.MethodPut, coordTS+"/v1/traces/"+hash, bytes.NewReader(col.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("coordinator PUT: %d", resp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodHead, coordTS+"/v1/traces/"+hash, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("coordinator HEAD: %d", resp.StatusCode)
	}
	if holders := countHolders(t, hash, srvA, srvB); holders != 1 {
		t.Fatalf("%d workers hold the trace after upload, want exactly the ring owner", holders)
	}

	body := fmt.Sprintf(`{"trace_hash":%q,"algorithms":["demand","forestall"],"disk_counts":[1,2],"windows":[128]}`, hash)
	want := materializedResults(t, body, tr, col.Bytes())

	st := submitJob(t, coordTS, body)
	if st.status != http.StatusOK {
		t.Fatalf("job status %d", st.status)
	}
	checkExactlyOnceIdentical(t, st, want)
	if st.summary == nil || !st.summary.Complete {
		t.Fatalf("incomplete job: %+v", st.summary)
	}
	// Preflight copied the blob to the worker that missed it before any
	// cell was scheduled.
	if snap := c.Snapshot(); snap.TracesReplicated < 1 {
		t.Errorf("traces_replicated %d, want >= 1", snap.TracesReplicated)
	}
	if holders := countHolders(t, hash, srvA, srvB); holders != 2 {
		t.Errorf("%d workers hold the trace after the job, want 2", holders)
	}

	// Store replay: zero recompute, zero fresh telemetry, same bytes.
	ranBefore := srvA.Snapshot().Simulations + srvB.Snapshot().Simulations
	second := submitJob(t, coordTS, body)
	if second.header.Get("X-Job-Cache") != "hit" {
		t.Errorf("resubmission X-Job-Cache %q, want hit", second.header.Get("X-Job-Cache"))
	}
	checkExactlyOnceIdentical(t, second, want)
	if second.summary == nil || second.summary.CellsFromStore != len(want) {
		t.Errorf("resubmission not fully from store: %+v", second.summary)
	}
	for _, rec := range second.cells {
		if rec.Cache != "store" {
			t.Errorf("replayed cell %d cache %q, want store", rec.Index, rec.Cache)
		}
		if rec.RefsPerSec != 0 || rec.PeakInuseBytes != 0 {
			t.Errorf("replayed cell %d carries stale streaming telemetry: %+v", rec.Index, rec)
		}
	}
	if ranAfter := srvA.Snapshot().Simulations + srvB.Snapshot().Simulations; ranAfter != ranBefore {
		t.Errorf("workers ran %d new simulations on replay, want 0", ranAfter-ranBefore)
	}

	// A job naming a hash nobody holds is rejected at preflight — a 400
	// naming the field, before any cell touches a worker.
	otherHash := tracestore.HashBytes([]byte("never uploaded"))
	missing := fmt.Sprintf(`{"trace_hash":%q,"algorithms":["demand"],"windows":[128]}`, otherHash)
	resp, err = http.Post(coordTS+"/v1/jobs", "application/json", strings.NewReader(missing))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("absent-hash job status %d, want 400", resp.StatusCode)
	}
	var env serve.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("non-envelope 400 body: %v", err)
	}
	if env.Error.Field != "TraceHash" {
		t.Errorf("absent-hash error field %q, want TraceHash", env.Error.Field)
	}
}

// countHolders reports how many workers' trace stores hold hash.
func countHolders(t *testing.T, hash string, srvs ...*serve.Server) int {
	t.Helper()
	n := 0
	for _, s := range srvs {
		store, err := s.TraceStore()
		if err != nil {
			t.Fatal(err)
		}
		if store.Has(hash) {
			n++
		}
	}
	return n
}

// TestWorkerKilledMidStreamedJob: the fault-tolerance half of the
// conformance suite. One of two workers dies after its first streamed
// cell; the coordinator requeues its cells onto the survivor and the
// stream still delivers every cell exactly once, byte-identical to the
// materialized oracle — recovery must not perturb streamed results.
func TestWorkerKilledMidStreamedJob(t *testing.T) {
	body := `{"trace_spec":{"refs":24000,"blocks":1024,"pattern":"zipf","seed":5},"algorithms":["demand","aggressive"],"disk_counts":[1,2],"windows":[64,256]}`
	tr := materializeSpec(t, ppcsim.LargeTraceSpec{Refs: 24000, Blocks: 1024, Pattern: "zipf", Seed: 5})
	want := materializedResults(t, body, tr, nil)

	srvA := serve.New(serve.Config{Workers: 2})
	defer srvA.Close()
	tsA := killingProxy(t, srvA.Handler(), 1)
	_, _, bB := newHTTPWorker(t, "b")
	bA := NewHTTPBackend("a", tsA.URL, nil)

	c, err := New(Config{Backends: []Backend{bA, bB}})
	if err != nil {
		t.Fatal(err)
	}
	coordTS := httptestNewServer(t, c)

	st := submitJob(t, coordTS, body)
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
}
