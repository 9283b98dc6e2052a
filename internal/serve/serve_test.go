package serve

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ppcsim"
	"ppcsim/internal/trace"
	"ppcsim/internal/trace/tracetest"
)

// inlineTrace renders a small deterministic trace in the ppctrace text
// format, for requests that carry their workload inline.
func inlineTrace(name string, nBlocks, nRefs int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ppctrace %s false %d\n", name, nBlocks)
	fmt.Fprintf(&b, "file %d\n", nBlocks)
	for i := 0; i < nRefs; i++ {
		fmt.Fprintf(&b, "r %d 0.1\n", i%nBlocks)
	}
	return b.String()
}

// gateRunner is an injectable Runner that signals each start and blocks
// until released, so tests control exactly when simulations finish.
type gateRunner struct {
	started chan struct{} // receives one value per started run
	release chan struct{} // closed (or fed) to let runs finish
}

func (g *gateRunner) run(ctx context.Context, opts ppcsim.Options) (ppcsim.Result, error) {
	g.started <- struct{}{}
	select {
	case <-g.release:
		return ppcsim.Result{Trace: opts.Trace.Name, Policy: string(opts.Algorithm), Disks: opts.Disks}, nil
	case <-ctx.Done():
		return ppcsim.Result{}, fmt.Errorf("%w: %w", ppcsim.ErrCanceled, ctx.Err())
	}
}

func post(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestSimulateEndToEnd runs a real (tiny) simulation through the full
// HTTP path and checks the Result JSON decodes with sane metrics.
func TestSimulateEndToEnd(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := fmt.Sprintf(`{"trace_text":%q,"algorithm":"forestall","disks":2,"cache_blocks":16}`,
		inlineTrace("e2e", 64, 400))
	resp, got := post(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	var res ppcsim.Result
	if err := json.Unmarshal(got, &res); err != nil {
		t.Fatalf("bad result JSON: %v\n%s", err, got)
	}
	if res.Policy != "forestall" || res.Disks != 2 {
		t.Errorf("wrong run: %+v", res)
	}
	if res.CacheHits+res.CacheMisses != 400 {
		t.Errorf("served %d of 400 refs", res.CacheHits+res.CacheMisses)
	}
	if res.ElapsedSec <= 0 {
		t.Errorf("non-positive elapsed %g", res.ElapsedSec)
	}
}

// TestSimulateWindowedEndToEnd: a bare window field implies accurate
// full hints limited in reach, and the windowed run completes.
func TestSimulateWindowedEndToEnd(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := fmt.Sprintf(`{"trace_text":%q,"algorithm":"fixed-horizon","disks":2,"window":32}`,
		inlineTrace("win", 64, 400))
	resp, got := post(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	var res ppcsim.Result
	if err := json.Unmarshal(got, &res); err != nil {
		t.Fatalf("bad result JSON: %v\n%s", err, got)
	}
	if res.CacheHits+res.CacheMisses != 400 {
		t.Errorf("served %d of 400 refs", res.CacheHits+res.CacheMisses)
	}
}

// TestSimulateColumnarInline: trace_text carrying a base64-encoded
// columnar binary trace is sniffed, decoded, and must produce the exact
// Result JSON the same trace produces in the text format.
func TestSimulateColumnarInline(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	text := inlineTrace("col", 64, 400)
	tr, err := trace.Read(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	var col bytes.Buffer
	if _, err := trace.WriteColumnar(&col, tr.Source()); err != nil {
		t.Fatal(err)
	}
	b64 := base64.StdEncoding.EncodeToString(col.Bytes())
	if !strings.HasPrefix(b64, trace.ColumnarBase64Prefix) {
		t.Fatalf("encoded columnar trace does not start with the sniff prefix: %q", b64[:12])
	}

	resp, gotCol := post(t, ts, fmt.Sprintf(`{"trace_text":%q,"algorithm":"forestall","disks":2,"cache_blocks":16}`, b64))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("columnar status %d: %s", resp.StatusCode, gotCol)
	}
	resp, gotText := post(t, ts, fmt.Sprintf(`{"trace_text":%q,"algorithm":"forestall","disks":2,"cache_blocks":16}`, text))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("text status %d: %s", resp.StatusCode, gotText)
	}
	if !bytes.Equal(gotCol, gotText) {
		t.Errorf("columnar and text runs differ:\ncolumnar: %s\ntext:     %s", gotCol, gotText)
	}

	// A corrupt base64 body must 400 naming TraceText, not panic.
	resp, got := post(t, ts, `{"trace_text":"`+trace.ColumnarBase64Prefix+`!!!","algorithm":"demand"}`)
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(got, []byte("TraceText")) {
		t.Errorf("corrupt columnar body: status %d, body %s", resp.StatusCode, got)
	}
}

// TestOverclaimingColumnarBody: an inline columnar body whose header
// claims far more references than it carries draws a 400 on TraceText
// before anything is sized from the claim, even under a window that
// covers the claim, which takes the materializing path.
func TestOverclaimingColumnarBody(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, claim := range []uint64{1 << 26, 1 << 50} {
		b64 := base64.StdEncoding.EncodeToString(tracetest.OverclaimingColumnar(claim))
		body := fmt.Sprintf(`{"trace_text":%q,"algorithm":"demand","window":%d}`, b64, claim)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp, got := post(t, ts, body)
		runtime.ReadMemStats(&after)
		if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(got, []byte("TraceText")) {
			t.Errorf("claim %d: status %d, body %s", claim, resp.StatusCode, got)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("claim %d: the request allocated %d bytes", claim, alloc)
		}
	}
}

// TestStreamedWindowBound: a streamed run's window is at most 2^20
// references, so a generator request whose window would size a 16 GiB
// reference ring is a 400 on Hints, rejected without allocating it; the
// bound itself parses.
func TestStreamedWindowBound(t *testing.T) {
	const body = `{"trace_spec":{"refs":2000000000,"blocks":65536},"algorithm":"demand","window":%d}`
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ParseRequest([]byte(fmt.Sprintf(body, 1000000000)))
	runtime.ReadMemStats(&after)
	var ce *ppcsim.ConfigError
	if !errors.As(err, &ce) || ce.Field != "Hints" || StatusForError(err) != http.StatusBadRequest {
		t.Errorf("window 1e9: err %v, want a 400 on Hints", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("window 1e9: parsing allocated %d bytes", alloc)
	}
	if _, err := ParseRequest([]byte(fmt.Sprintf(body, 1<<20))); err != nil {
		t.Errorf("window 2^20: %v", err)
	}
}

// TestDecoderBoundaries is the HTTP half of the boundary-validation
// table: every malformed or out-of-range request must draw a 400 with a
// ConfigError-derived JSON body naming the field — never a panic, never
// a simulation.
func TestDecoderBoundaries(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name  string
		body  string
		field string
	}{
		{"empty body", ``, "Request"},
		{"bad json", `{`, "Request"},
		{"trailing data", `{"trace":"synth","algorithm":"demand"} extra`, "Request"},
		{"unknown field", `{"trace":"synth","algorithm":"demand","bogus":1}`, "Request"},
		{"no trace", `{"algorithm":"demand"}`, "Trace"},
		{"both traces", `{"trace":"synth","trace_text":"x","algorithm":"demand"}`, "Trace"},
		{"unknown trace name", `{"trace":"bogus","algorithm":"demand"}`, "Trace"},
		{"bad inline trace", `{"trace_text":"garbage","algorithm":"demand"}`, "TraceText"},
		{"missing algorithm", `{"trace":"synth"}`, "Algorithm"},
		{"unknown algorithm", `{"trace":"synth","algorithm":"tip2"}`, "Algorithm"},
		{"unknown scheduler", `{"trace":"synth","algorithm":"demand","scheduler":"sstf"}`, "Scheduler"},
		{"zero disks", `{"trace":"synth","algorithm":"demand","disks":0}`, "Disks"},
		{"negative disks", `{"trace":"synth","algorithm":"demand","disks":-2}`, "Disks"},
		{"zero cache", `{"trace":"synth","algorithm":"demand","cache_blocks":0}`, "CacheBlocks"},
		{"negative cache", `{"trace":"synth","algorithm":"demand","cache_blocks":-5}`, "CacheBlocks"},
		{"one-block cache", `{"trace":"synth","algorithm":"demand","cache_blocks":1}`, "CacheBlocks"},
		{"negative batch", `{"trace":"synth","algorithm":"aggressive","batch_size":-1}`, "BatchSize"},
		{"negative horizon", `{"trace":"synth","algorithm":"fixed-horizon","horizon":-1}`, "Horizon"},
		{"negative cpu scale", `{"trace":"synth","algorithm":"demand","cpu_scale":-1}`, "CPUScale"},
		{"negative timeout", `{"trace":"synth","algorithm":"demand","timeout_ms":-1}`, "TimeoutMs"},
		{"bad hint fraction", `{"trace":"synth","algorithm":"demand","hints":{"fraction":1.5,"accuracy":1}}`, "Hints"},
		{"hints with reverse-aggressive", `{"trace":"synth","algorithm":"reverse-aggressive","hints":{"fraction":0.5,"accuracy":1}}`, "Hints"},
		{"zero window", `{"trace":"synth","algorithm":"fixed-horizon","window":0}`, "Window"},
		{"negative window", `{"trace":"synth","algorithm":"fixed-horizon","window":-8}`, "Window"},
		{"window with reverse-aggressive", `{"trace":"synth","algorithm":"reverse-aggressive","window":10}`, "Hints"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, body := post(t, ts, c.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400; body: %s", resp.StatusCode, body)
			}
			var env ErrorEnvelope
			if err := json.Unmarshal(body, &env); err != nil {
				t.Fatalf("non-JSON error body: %v\n%s", err, body)
			}
			if env.Error.Field != c.field {
				t.Errorf("error field %q, want %q (error: %s)", env.Error.Field, c.field, env.Error.Message)
			}
			if env.Error.Code != CodeInvalidRequest {
				t.Errorf("error code %q, want %q", env.Error.Code, CodeInvalidRequest)
			}
			if env.Error.Message == "" {
				t.Error("empty error message")
			}
		})
	}
}

// TestSingleflightDeduplicates is the acceptance check: identical
// concurrent requests share exactly one underlying simulation and all
// receive byte-identical Result JSON.
func TestSingleflightDeduplicates(t *testing.T) {
	gate := &gateRunner{started: make(chan struct{}, 16), release: make(chan struct{})}
	s := New(Config{Workers: 2, Runner: gate.run})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const concurrent = 8
	body := `{"trace":"synth","algorithm":"aggressive","disks":4}`

	var wg sync.WaitGroup
	bodies := make([][]byte, concurrent)
	statuses := make([]int, concurrent)
	// First request becomes the leader and blocks inside the runner...
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, b := post(t, ts, body)
		statuses[0], bodies[0] = resp.StatusCode, b
	}()
	<-gate.started
	// ...then the rest arrive while the leader's run is in flight.
	for i := 1; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, b := post(t, ts, body)
			statuses[i], bodies[i] = resp.StatusCode, b
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let followers reach the flight group
	close(gate.release)
	wg.Wait()

	for i := 0; i < concurrent; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, statuses[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("request %d body differs:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	if runs := s.runs.Load(); runs != 1 {
		t.Errorf("%d underlying simulations, want exactly 1", runs)
	}
}

// TestResultCacheHits: a repeated request is served from the LRU with
// byte-identical body and an X-Cache: hit marker; requests that spell
// the defaults explicitly share the canonical key.
func TestResultCacheHits(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := fmt.Sprintf(`{"trace_text":%q,"algorithm":"demand"}`, inlineTrace("c", 32, 200))
	resp1, b1 := post(t, ts, body)
	if resp1.StatusCode != http.StatusOK || resp1.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first request: status %d, X-Cache %q", resp1.StatusCode, resp1.Header.Get("X-Cache"))
	}
	resp2, b2 := post(t, ts, body)
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("second request: status %d, X-Cache %q", resp2.StatusCode, resp2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("cache hit is not byte-identical:\n%s\nvs\n%s", b1, b2)
	}
	// Explicit defaults (disks 1, cscan, cpu_scale 1) canonicalize to the
	// same key, so this also hits.
	explicit := fmt.Sprintf(`{"trace_text":%q,"algorithm":"demand","disks":1,"scheduler":"cscan","cpu_scale":1}`,
		inlineTrace("c", 32, 200))
	resp3, b3 := post(t, ts, explicit)
	if resp3.Header.Get("X-Cache") != "hit" {
		t.Errorf("explicit-defaults request missed the cache")
	}
	if !bytes.Equal(b1, b3) {
		t.Errorf("explicit-defaults hit differs from original body")
	}
	if runs := s.runs.Load(); runs != 1 {
		t.Errorf("%d simulations for three identical requests, want 1", runs)
	}
}

// TestBackpressure: with one worker and one queue slot, a third distinct
// request is rejected with 429 and a Retry-After header while the first
// two are eventually served.
func TestBackpressure(t *testing.T) {
	gate := &gateRunner{started: make(chan struct{}, 4), release: make(chan struct{})}
	s := New(Config{Workers: 1, QueueDepth: 1, Runner: gate.run})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := func(alg string) string {
		return fmt.Sprintf(`{"trace":"synth","algorithm":%q}`, alg)
	}
	type reply struct {
		status int
	}
	results := make(chan reply, 2)
	go func() {
		resp, _ := post(t, ts, req("demand"))
		results <- reply{resp.StatusCode}
	}()
	<-gate.started // worker is now occupied by the first request
	go func() {
		resp, _ := post(t, ts, req("aggressive"))
		results <- reply{resp.StatusCode}
	}()
	// Wait for the second request to take the single queue slot.
	deadline := time.Now().Add(5 * time.Second)
	for s.pool.depth() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	resp, body := post(t, ts, req("forestall"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third request: status %d, want 429; body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Message == "" {
		t.Errorf("429 body is not the JSON error envelope: %s", body)
	}
	if env.Error.Code != CodeQueueFull {
		t.Errorf("429 code %q, want %q", env.Error.Code, CodeQueueFull)
	}

	close(gate.release)
	for i := 0; i < 2; i++ {
		if r := <-results; r.status != http.StatusOK {
			t.Errorf("accepted request finished with %d", r.status)
		}
	}
	if got := s.rejected.Load(); got != 1 {
		t.Errorf("rejected counter %d, want 1", got)
	}
}

// TestGracefulShutdownDrains is the acceptance check: requests accepted
// before Close all complete with 200 even though Close begins while they
// are running or queued, and later submissions are refused.
func TestGracefulShutdownDrains(t *testing.T) {
	const queued = 3
	gate := &gateRunner{started: make(chan struct{}, 8), release: make(chan struct{})}
	s := New(Config{Workers: 1, QueueDepth: queued, Runner: gate.run})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	algs := []string{"demand", "aggressive", "forestall", "fixed-horizon"}
	statuses := make(chan int, len(algs))
	go func() {
		resp, _ := post(t, ts, fmt.Sprintf(`{"trace":"synth","algorithm":%q}`, algs[0]))
		statuses <- resp.StatusCode
	}()
	<-gate.started
	for _, alg := range algs[1:] {
		go func(alg string) {
			resp, _ := post(t, ts, fmt.Sprintf(`{"trace":"synth","algorithm":%q}`, alg))
			statuses <- resp.StatusCode
		}(alg)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.pool.depth() < queued {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests queued", s.pool.depth(), queued)
		}
		time.Sleep(time.Millisecond)
	}

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	// Close must be blocked in drain while work is outstanding.
	select {
	case <-closed:
		t.Fatal("Close returned with simulations still gated")
	case <-time.After(20 * time.Millisecond):
	}
	close(gate.release)
	for range algs {
		if status := <-statuses; status != http.StatusOK {
			t.Errorf("accepted request lost to shutdown: status %d", status)
		}
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after drain")
	}

	// After drain: new work refused, health reports draining.
	resp, _ := post(t, ts, `{"trace":"synth","algorithm":"demand","disks":7}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain request: status %d, want 503", resp.StatusCode)
	}
	hresp, err := ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz: status %d, want 503", hresp.StatusCode)
	}
}

// TestRequestTimeout: a deadline far shorter than the simulation
// produces 504 via the engine's cooperative cancellation.
func TestRequestTimeout(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := post(t, ts, `{"trace":"synth","algorithm":"aggressive","disks":4,"timeout_ms":1}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504; body %s", resp.StatusCode, body)
	}
	if s.timeouts.Load() != 1 {
		t.Errorf("timeout counter %d, want 1", s.timeouts.Load())
	}
	// The failed run must not have been cached.
	if s.cache.len() != 0 {
		t.Errorf("timed-out result was cached")
	}
}

// TestHealthzAndStatsz: endpoint shapes and counter consistency.
func TestHealthzAndStatsz(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	hresp, err := ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", hresp.StatusCode)
	}

	body := fmt.Sprintf(`{"trace_text":%q,"algorithm":"demand"}`, inlineTrace("s", 16, 100))
	post(t, ts, body)
	post(t, ts, body)

	sresp, err := ts.Client().Get(ts.URL + "/v1/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if st.Requests != 2 || st.Simulations != 1 || st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Errorf("stats: %+v", st)
	}
	if st.CacheHitRate != 0.5 {
		t.Errorf("hit rate %g, want 0.5", st.CacheHitRate)
	}
	// One computed run and one cache hit: each latency series gets
	// exactly one sample, so a hit can never hide a slow computed run.
	if st.LatencyMiss.Count != 1 || st.LatencyMiss.P95Ms < 0 {
		t.Errorf("miss latency summary: %+v", st.LatencyMiss)
	}
	if st.LatencyHit.Count != 1 || st.LatencyHit.P95Ms < 0 {
		t.Errorf("hit latency summary: %+v", st.LatencyHit)
	}
	if st.Workers != 1 || st.QueueCapacity != 4 {
		t.Errorf("pool shape: %+v", st)
	}
}

// TestMethodAndSizeLimits: wrong method and oversized bodies are
// rejected before any queue slot is touched.
func TestMethodAndSizeLimits(t *testing.T) {
	s := New(Config{Workers: 1, MaxBodyBytes: 128})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/run: %d, want 405", resp.StatusCode)
	}

	big := fmt.Sprintf(`{"trace_text":%q,"algorithm":"demand"}`, inlineTrace("big", 64, 500))
	resp2, _ := post(t, ts, big)
	if resp2.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: %d, want 413", resp2.StatusCode)
	}
}

// TestPoolDrainLosesNothing exercises the pool directly: every accepted
// job runs even when drain races the submissions.
func TestPoolDrainLosesNothing(t *testing.T) {
	p := newPool(2, 8)
	var mu sync.Mutex
	ran := 0
	accepted := 0
	for i := 0; i < 100; i++ {
		err := p.submit(func() {
			mu.Lock()
			ran++
			mu.Unlock()
		})
		switch {
		case err == nil:
			accepted++
		case errors.Is(err, ErrQueueFull):
			// Backpressure under a slow consumer is fine here.
		default:
			t.Fatalf("unexpected submit error: %v", err)
		}
	}
	p.drain()
	mu.Lock()
	defer mu.Unlock()
	if ran != accepted {
		t.Errorf("ran %d of %d accepted jobs", ran, accepted)
	}
	if err := p.submit(func() {}); !errors.Is(err, ErrClosed) {
		t.Errorf("post-drain submit: %v, want ErrClosed", err)
	}
}

// TestLRUEviction: the result cache honors its bound and evicts the
// least recently used key.
func TestLRUEviction(t *testing.T) {
	c := newResultCache(2)
	c.put("a", []byte("1"))
	c.put("b", []byte("2"))
	c.get("a") // refresh a; b is now LRU
	c.put("c", []byte("3"))
	if _, ok := c.get("b"); ok {
		t.Error("b should have been evicted")
	}
	if v, ok := c.get("a"); !ok || string(v) != "1" {
		t.Error("a should have survived")
	}
	if c.len() != 2 {
		t.Errorf("len %d, want 2", c.len())
	}
}

// TestLegacyShims: the pre-v1 paths are retired, so each one, like any
// other unknown path, draws the v1 404 error envelope rather than
// net/http's plain text.
func TestLegacyShims(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct{ method, path string }{
		{http.MethodPost, "/simulate"},
		{http.MethodGet, "/healthz"},
		{http.MethodGet, "/statsz"},
		{http.MethodGet, "/v2/run"},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, ts.URL+c.path,
			strings.NewReader(`{"trace":"synth","algorithm":"demand"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var env ErrorEnvelope
		derr := json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", c.method, c.path, resp.StatusCode)
		}
		if derr != nil || env.Error.Code != CodeNotFound {
			t.Errorf("%s %s: body not the 404 envelope (err %v, code %q)", c.method, c.path, derr, env.Error.Code)
		}
	}
}

// TestRunSpecRejectsNonFiniteCPUScale: JSON cannot carry NaN or an
// infinity, but a RunSpec built in Go (ppc-sim builds one from its
// flags) can, and Validate names CPUScale for it.
func TestRunSpecRejectsNonFiniteCPUScale(t *testing.T) {
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		err := (&RunSpec{Trace: "synth", Algorithm: "demand", CPUScale: x}).Validate()
		var cfgErr *ppcsim.ConfigError
		if !errors.As(err, &cfgErr) || cfgErr.Field != "CPUScale" {
			t.Errorf("cpu_scale %g: got %v, want a ConfigError on CPUScale", x, err)
		}
	}
}

// TestKeyCanonicalization: keys are insensitive to spelling defaults
// explicitly, to algorithm case and to a -0 that encoding the spec
// drops, but sensitive to every outcome-changing option and to
// inline-trace content.
func TestKeyCanonicalization(t *testing.T) {
	one := 1
	negZero := math.Copysign(0, -1)
	base := RunSpec{Trace: "synth", Algorithm: "demand"}
	same := []RunSpec{
		{Trace: "synth", Algorithm: "DEMAND"},
		{Trace: "synth", Algorithm: "demand", Disks: &one, Scheduler: "cscan", CPUScale: 1},
		{Trace: "synth", Algorithm: "demand", FetchEstimate: negZero, ForestallFixedF: negZero, DriverOverheadMs: negZero},
	}
	for i, r := range same {
		if r.Key() != base.Key() {
			t.Errorf("variant %d key differs:\n%s\n%s", i, r.Key(), base.Key())
		}
	}
	// The transport-only timeout lives on Request, outside the key.
	withTimeout := Request{RunSpec: base, TimeoutMs: 500}
	if withTimeout.Key() != base.Key() {
		t.Errorf("timeout_ms leaked into the canonical key")
	}
	two := 2
	diff := []RunSpec{
		{Trace: "xds", Algorithm: "demand"},
		{Trace: "synth", Algorithm: "forestall"},
		{Trace: "synth", Algorithm: "demand", Disks: &two},
		{Trace: "synth", Algorithm: "demand", Scheduler: "fcfs"},
		{Trace: "synth", Algorithm: "demand", PlacementSeed: 9},
		{Trace: "synth", Algorithm: "demand", CPUScale: 0.5},
		{Trace: "synth", Algorithm: "demand", Hints: &Hints{Fraction: 0.5, Accuracy: 1}},
		{Trace: "synth", Algorithm: "demand", Window: &two},
		{TraceText: inlineTrace("synth", 8, 8), Algorithm: "demand"},
	}
	for i, r := range diff {
		if r.Key() == base.Key() {
			t.Errorf("variant %d should have a distinct key", i)
		}
	}
	if (&RunSpec{TraceText: inlineTrace("a", 8, 8), Algorithm: "demand"}).Key() ==
		(&RunSpec{TraceText: inlineTrace("a", 8, 9), Algorithm: "demand"}).Key() {
		t.Error("different inline traces share a key")
	}
}
