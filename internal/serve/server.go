// Package serve exposes the simulator as a concurrent HTTP service: a
// bounded worker pool runs simulations, an LRU result cache with
// singleflight deduplication absorbs repeated and concurrent identical
// requests, and a bounded queue applies backpressure (429 + Retry-After)
// when the pool is saturated. Per-request deadlines cancel the engine
// cooperatively (ppcsim.RunContext), and shutdown drains every accepted
// request before returning.
//
// A Server is also the worker role of a sweep cluster: the coordinator
// (ppcsim/internal/serve/coord) routes sweep cells to a fleet of these
// servers over the same /v1/run contract, either via HTTP or embedded
// in process through RunRequest, which takes the request the
// coordinator already decoded.
//
// v1 endpoints (see docs/api-v1.md):
//
//	POST /v1/run      run (or serve from cache) one simulation; JSON in/out
//	GET  /v1/healthz  liveness and drain state
//	GET  /v1/statsz   queue depth, cache hit rate, latency percentiles
//
// Every other path, including the retired pre-v1 /simulate, /healthz and
// /statsz, answers 404 with the v1 error envelope.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ppcsim"
	"ppcsim/internal/obs"
	"ppcsim/internal/serve/tracestore"
)

// Config parameterizes a Server. The zero value selects the defaults
// noted on each field.
type Config struct {
	// Workers is the number of concurrent simulations (default
	// runtime.GOMAXPROCS(0) — the simulator is CPU bound, so more workers
	// than cores only adds contention).
	Workers int
	// QueueDepth bounds the accepted-but-not-started request queue
	// (default 4×Workers). A full queue rejects with 429.
	QueueDepth int
	// CacheEntries bounds the LRU result cache (default 1024 entries).
	CacheEntries int
	// MaxBodyBytes bounds the request body, which may carry an inline
	// trace (default 8 MiB).
	MaxBodyBytes int64
	// DefaultTimeout is the per-request simulation deadline when the
	// request does not set timeout_ms, and, when positive, the cap on
	// one that does (default 60s). A negative DefaultTimeout gives
	// requests without timeout_ms no deadline and leaves a request's
	// own timeout_ms uncapped.
	DefaultTimeout time.Duration
	// Runner executes one simulation (default ppcsim.RunContext). Tests
	// substitute instrumented runners.
	Runner func(ctx context.Context, opts ppcsim.Options) (ppcsim.Result, error)
	// TraceStoreDir is the directory of the content-addressed trace
	// store behind /v1/traces and trace_hash cells. Empty means a fresh
	// temporary directory owned by the server and removed on Close, so a
	// restart with a configured directory re-adopts its blobs while the
	// default leaves nothing behind.
	TraceStoreDir string
	// TraceStoreBytes is the trace store's LRU byte budget (default
	// 1 GiB).
	TraceStoreBytes int64
}

// Server is the simulation service. Create with New, expose via
// Handler, stop with Close.
type Server struct {
	cfg   Config
	pool  *pool
	cache *resultCache
	group flightGroup
	mux   *http.ServeMux

	traceMu sync.Mutex
	traces  map[string]*ppcsim.Trace //ppcvet:guardedby traceMu

	// The trace store is created on first use — most servers never see a
	// trace_hash cell and should not pay for a directory.
	storeMu sync.Mutex
	//ppcvet:guardedby storeMu
	store *tracestore.Store
	//ppcvet:guardedby storeMu
	storeDir string // set only when the server owns (and removes) the dir
	//ppcvet:guardedby storeMu
	storeErr error

	draining atomic.Bool

	// Service-level counters (see /v1/statsz).
	requests  obs.Counter // /v1/run requests received
	completed obs.Counter // successful fresh runs
	failed    obs.Counter // internal failures
	rejected  obs.Counter // queue-full rejections (429)
	timeouts  obs.Counter // deadline expirations (504)
	deduped   obs.Counter // requests that joined another request's run
	cacheHits obs.Counter // served straight from the result cache
	cacheMiss obs.Counter
	runs      obs.Counter // underlying simulations actually executed
	streamed  obs.Counter // runs that went through Options.Source
	// Streaming gauges: the high-water live-heap mark across streamed
	// runs (the number the flat-memory-ceiling claim is checked against)
	// and the most recent streaming throughput, as float64 bits.
	peakInuse      atomic.Int64
	lastRefsPerSec atomic.Uint64
	// Request latency split by cache outcome: lumping the
	// microsecond-scale hits in with computed runs hides pool saturation
	// behind a flood of fast hits, so each series is its own histogram.
	latencyHit  obs.SyncHistogram
	latencyMiss obs.SyncHistogram
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.Workers
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 1024
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.DefaultTimeout == 0 {
		cfg.DefaultTimeout = 60 * time.Second
	}
	if cfg.Runner == nil {
		cfg.Runner = ppcsim.RunContext
	}
	s := &Server{
		cfg:    cfg,
		pool:   newPool(cfg.Workers, cfg.QueueDepth),
		cache:  newResultCache(cfg.CacheEntries),
		traces: make(map[string]*ppcsim.Trace),
		mux:    http.NewServeMux(),
	}
	s.mux.HandleFunc("/v1/run", s.handleRun)
	s.mux.HandleFunc("/v1/traces/", s.handleTraces)
	s.mux.HandleFunc("/v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("/v1/statsz", s.handleStatsz)
	s.mux.HandleFunc("/", handleNotFound)
	return s
}

func handleNotFound(w http.ResponseWriter, r *http.Request) {
	WriteError(w, http.StatusNotFound, fmt.Errorf("serve: no such endpoint %s", r.URL.Path))
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close drains the service: intake stops (new submissions get 503), and
// Close blocks until every accepted simulation has finished, so no
// request that got past backpressure is lost. Idempotent.
func (s *Server) Close() {
	s.draining.Store(true)
	s.pool.drain()
	// Every accepted run has finished, so no store blob is pinned; a
	// server-owned temporary store directory can go with the server.
	s.storeMu.Lock()
	if s.storeDir != "" {
		os.RemoveAll(s.storeDir)
		s.storeDir = ""
		s.store = nil
		s.storeErr = ErrClosed
	}
	s.storeMu.Unlock()
}

// TraceStore returns the server's content-addressed trace store,
// creating it (and, absent Config.TraceStoreDir, its temporary
// directory) on first use.
func (s *Server) TraceStore() (*tracestore.Store, error) {
	s.storeMu.Lock()
	defer s.storeMu.Unlock()
	if s.store != nil || s.storeErr != nil {
		return s.store, s.storeErr
	}
	dir := s.cfg.TraceStoreDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "ppc-tracestore-*")
		if err != nil {
			s.storeErr = err
			return nil, err
		}
		s.storeDir, dir = tmp, tmp
	}
	st, err := tracestore.New(tracestore.Config{Dir: dir, MaxBytes: s.cfg.TraceStoreBytes})
	if err != nil {
		if s.storeDir != "" {
			os.RemoveAll(s.storeDir)
			s.storeDir = ""
		}
		s.storeErr = err
		return nil, err
	}
	s.store = st
	return st, nil
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		WriteError(w, http.StatusMethodNotAllowed, errors.New("serve: POST required"))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			WriteError(w, http.StatusRequestEntityTooLarge, err)
		} else {
			WriteError(w, http.StatusBadRequest, err)
		}
		return
	}
	val, meta, err := s.RunJSONMeta(body)
	if err != nil {
		status := StatusForError(err)
		if status == http.StatusTooManyRequests {
			// The queue holds at most QueueDepth simulations ahead of a
			// retry; one second is a sane lower bound for a slot to free.
			w.Header().Set("Retry-After", "1")
		}
		WriteError(w, status, err)
		return
	}
	xcache := "miss"
	if meta.CacheHit {
		xcache = "hit"
	}
	if meta.Streamed {
		// Wall-clock observations ride as headers, never in the body:
		// response bytes for a key stay identical across runs and workers.
		w.Header().Set("X-Streamed", "1")
		w.Header().Set("X-Refs-Per-Sec", strconv.FormatFloat(meta.RefsPerSec, 'f', 1, 64))
		w.Header().Set("X-Peak-Inuse-Bytes", strconv.FormatInt(meta.PeakInuseBytes, 10))
	}
	s.writeResult(w, val, xcache)
}

// handleTraces serves the trace-store endpoints:
//
//	PUT  /v1/traces/<hash>  upload a columnar trace (verified, idempotent)
//	HEAD /v1/traces/<hash>  existence probe (204 / 404)
//	GET  /v1/traces/<hash>  download the raw blob
//
// PUT bodies stream straight into the store, so uploads are bounded by
// the store's byte budget rather than MaxBodyBytes.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	hash := strings.TrimPrefix(r.URL.Path, "/v1/traces/")
	if hash == "" || strings.Contains(hash, "/") {
		WriteError(w, http.StatusNotFound, fmt.Errorf("serve: no such endpoint %s", r.URL.Path))
		return
	}
	if !tracestore.ValidHash(hash) {
		WriteError(w, http.StatusBadRequest, &ppcsim.ConfigError{Field: "TraceHash",
			Reason: fmt.Sprintf("%q is not a trace hash (want 64 lowercase hex digits)", hash)})
		return
	}
	switch r.Method {
	case http.MethodPut:
		if s.draining.Load() {
			WriteError(w, http.StatusServiceUnavailable, ErrClosed)
			return
		}
		st, err := s.TraceStore()
		if err != nil {
			WriteError(w, http.StatusInternalServerError, err)
			return
		}
		created, err := st.Put(hash, r.Body)
		if err != nil {
			var mismatch *tracestore.MismatchError
			var tooLarge *tracestore.TooLargeError
			switch {
			case errors.As(err, &mismatch):
				WriteError(w, http.StatusBadRequest, &ppcsim.ConfigError{Field: "TraceHash", Reason: mismatch.Error()})
			case errors.As(err, &tooLarge):
				WriteError(w, http.StatusRequestEntityTooLarge, err)
			default:
				WriteError(w, http.StatusInternalServerError, err)
			}
			return
		}
		status := http.StatusOK
		if created {
			status = http.StatusCreated
		}
		writeJSON(w, status, map[string]any{"hash": hash, "created": created})
	case http.MethodHead:
		st, err := s.TraceStore()
		if err != nil {
			WriteError(w, http.StatusInternalServerError, err)
			return
		}
		if !st.Has(hash) {
			// net/http drops the body for HEAD; the status is the answer.
			WriteError(w, http.StatusNotFound, fmt.Errorf("serve: trace %s not in store", hash))
			return
		}
		w.WriteHeader(http.StatusNoContent)
	case http.MethodGet:
		st, err := s.TraceStore()
		if err != nil {
			WriteError(w, http.StatusInternalServerError, err)
			return
		}
		h, err := st.Open(hash)
		if err != nil {
			if errors.Is(err, tracestore.ErrNotFound) {
				WriteError(w, http.StatusNotFound, err)
			} else {
				WriteError(w, http.StatusInternalServerError, err)
			}
			return
		}
		defer h.Close()
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.FormatInt(h.Bytes(), 10))
		w.WriteHeader(http.StatusOK)
		io.Copy(w, h)
	default:
		w.Header().Set("Allow", "PUT, HEAD, GET")
		WriteError(w, http.StatusMethodNotAllowed, errors.New("serve: PUT, HEAD, or GET required"))
	}
}

// RunMeta is the per-run transport metadata RunJSONMeta reports
// alongside the response bytes. It deliberately never enters the result
// cache or the response body — wall-clock observations differ between
// runs of the same key, and bodies must not. Deduplicated followers see
// zero streaming metrics (only the singleflight leader observes the
// run).
type RunMeta struct {
	// CacheHit reports the result came from the cache (or a concurrent
	// leader) rather than a fresh simulation.
	CacheHit bool
	// Streamed reports the run went through Options.Source under the
	// sliding-window engine, never materializing the trace.
	Streamed bool
	// RefsPerSec is the streamed run's throughput.
	RefsPerSec float64
	// PeakInuseBytes is the live-heap high-water mark sampled during the
	// streamed run.
	PeakInuseBytes int64
}

// RunJSONMeta is the transport-independent worker entry point: it
// decodes one /v1/run body (ParseRequest), then serves it from the
// result cache or runs it on the worker pool, deduplicating concurrent
// identical requests (RunRequest). It returns the exact response bytes
// and the run's transport metadata. The HTTP handler and an embedded
// worker handed an undecoded body call it, so a simulation behaves
// identically however it arrives. Errors map to HTTP statuses via
// StatusForError.
func (s *Server) RunJSONMeta(body []byte) (val []byte, meta RunMeta, err error) {
	req, err := ParseRequest(body)
	if err != nil {
		s.requests.Inc()
		return nil, meta, err
	}
	return s.RunRequest(req, req.Key())
}

// RunRequest serves one decoded /v1/run request: from the result cache,
// or run on the worker pool, deduplicating concurrent identical
// requests. req must have passed ParseRequest's checks and key must be
// req.Key(); a caller that already decoded the body (the coordinator's
// embedded workers) calls it instead of RunJSONMeta to skip a second
// decode.
func (s *Server) RunRequest(req *Request, key string) (val []byte, meta RunMeta, err error) {
	s.requests.Inc()
	start := time.Now()
	if cached, ok := s.cache.get(key); ok {
		s.cacheHits.Inc()
		s.latencyHit.Observe(float64(time.Since(start)) / float64(time.Millisecond))
		meta.CacheHit = true
		return cached, meta, nil
	}
	s.cacheMiss.Inc()
	val, err, shared := s.group.do(key, func() ([]byte, error) {
		// Double-check the cache inside the flight: a previous leader may
		// have filled it between our lookup and joining the group.
		if cached, ok := s.cache.get(key); ok {
			meta.CacheHit = true
			return cached, nil
		}
		b, m, err := s.execute(req, key)
		if err == nil {
			meta = m
		}
		return b, err
	})
	if shared {
		s.deduped.Inc()
	}
	if err != nil {
		switch {
		case errors.Is(err, ErrQueueFull):
			s.rejected.Inc()
		case errors.Is(err, ppcsim.ErrCanceled):
			s.timeouts.Inc()
		case errors.Is(err, ErrClosed):
		default:
			var cfgErr *ppcsim.ConfigError
			if !errors.As(err, &cfgErr) {
				s.failed.Inc()
			}
		}
		return nil, RunMeta{}, err
	}
	// Only completed work lands in the miss series: fast failures (429,
	// 400) would otherwise drag the computed-run distribution down.
	s.latencyMiss.Observe(float64(time.Since(start)) / float64(time.Millisecond))
	return val, meta, nil
}

// writeResult sends a cached or fresh Result JSON body. The bytes are
// written exactly as cached, so every response for a key is
// byte-identical; only the X-Cache header distinguishes hits.
func (s *Server) writeResult(w http.ResponseWriter, body []byte, xcache string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", xcache)
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// execute resolves the request into options, runs it on the worker pool
// under its deadline, and caches the serialized result. Called at most
// once per in-flight key (the singleflight leader).
func (s *Server) execute(req *Request, key string) ([]byte, RunMeta, error) {
	opts, cleanup, err := req.BuildOptions(SourceEnv{
		LoadTrace: s.loadTrace,
		OpenHash: func(hash string) (io.ReadSeekCloser, error) {
			st, err := s.TraceStore()
			if err != nil {
				return nil, err
			}
			return st.Open(hash)
		},
	})
	if err != nil {
		return nil, RunMeta{}, err
	}
	defer cleanup()
	ctx := context.Background()
	if timeout := s.timeoutFor(req); timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	var (
		res    ppcsim.Result
		runErr error
		meta   RunMeta
		done   = make(chan struct{})
	)
	job := func() {
		defer close(done)
		defer func() {
			// A panicking simulation must not take a worker (and with it
			// the whole drain protocol) down; surface it as a 500.
			if p := recover(); p != nil {
				runErr = fmt.Errorf("serve: simulation panic: %v", p)
			}
		}()
		if err := ctx.Err(); err != nil {
			// The deadline expired while the job sat in the queue.
			runErr = fmt.Errorf("%w before starting: %w", ppcsim.ErrCanceled, err)
			return
		}
		s.runs.Inc()
		if opts.Source == nil {
			res, runErr = s.cfg.Runner(ctx, opts)
			return
		}
		// Streaming run: sample the live heap while it executes and time
		// it, so the flat-memory-ceiling and throughput claims are
		// observable per run.
		peakC := sampleHeapPeak()
		runStart := time.Now()
		res, runErr = s.cfg.Runner(ctx, opts)
		elapsed := time.Since(runStart)
		meta.Streamed = true
		meta.PeakInuseBytes = peakC()
		if elapsed > 0 {
			meta.RefsPerSec = float64(opts.Source.Meta().Refs) / elapsed.Seconds()
		}
	}
	if err := s.pool.submit(job); err != nil {
		return nil, RunMeta{}, err
	}
	<-done
	if runErr != nil {
		return nil, RunMeta{}, runErr
	}
	if meta.Streamed {
		s.streamed.Inc()
		for {
			cur := s.peakInuse.Load()
			if meta.PeakInuseBytes <= cur || s.peakInuse.CompareAndSwap(cur, meta.PeakInuseBytes) {
				break
			}
		}
		s.lastRefsPerSec.Store(math.Float64bits(meta.RefsPerSec))
	}
	body, err := json.Marshal(res)
	if err != nil {
		return nil, RunMeta{}, err
	}
	s.cache.put(key, body)
	s.completed.Inc()
	return body, meta, nil
}

// sampleHeapPeak starts a sampler goroutine polling the runtime's
// live-heap gauge and returns a stop function that ends the sampler,
// waits for it, and reports the peak it saw.
func sampleHeapPeak() func() int64 {
	var peak int64
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(sample)
			if v := int64(sample[0].Value.Uint64()); v > peak {
				peak = v
			}
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
	return func() int64 {
		close(stop)
		<-sampled
		return peak
	}
}

// timeoutFor resolves a request's simulation deadline: the request's
// timeout_ms, clamped to DefaultTimeout when that is positive, or
// DefaultTimeout when unset. A non-positive result disables the
// deadline. A set timeout_ms always yields a deadline: one too small
// for a nanosecond gets one, and one past time.Duration's range the
// largest.
func (s *Server) timeoutFor(req *Request) time.Duration {
	if req.TimeoutMs <= 0 {
		return s.cfg.DefaultTimeout
	}
	t := time.Duration(math.MaxInt64)
	if ns := req.TimeoutMs * float64(time.Millisecond); ns < float64(t) {
		t = max(time.Duration(ns), 1)
	}
	if s.cfg.DefaultTimeout > 0 {
		t = min(t, s.cfg.DefaultTimeout)
	}
	return t
}

// loadTrace returns a bundled trace, generating it once and caching it
// for the server's lifetime (the generators are deterministic, and
// nothing downstream mutates a loaded trace).
func (s *Server) loadTrace(name string) (*ppcsim.Trace, error) {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	if tr, ok := s.traces[name]; ok {
		return tr, nil
	}
	tr, err := ppcsim.NewTrace(name)
	if err != nil {
		return nil, err
	}
	s.traces[name] = tr
	return tr, nil
}

// LatencySummary is one latency distribution in the /v1/statsz
// response.
type LatencySummary struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
}

// Summarize collects a histogram into the stats wire form; shared with
// the coordinator's stream-lag series.
func Summarize(h *obs.SyncHistogram) LatencySummary {
	return LatencySummary{
		Count:  h.Count(),
		MeanMs: h.MeanMs(),
		P50Ms:  h.Quantile(0.50),
		P95Ms:  h.Quantile(0.95),
		P99Ms:  h.Quantile(0.99),
	}
}

// Stats is the /v1/statsz response.
type Stats struct {
	Draining      bool `json:"draining"`
	Workers       int  `json:"workers"`
	QueueDepth    int  `json:"queue_depth"`
	QueueCapacity int  `json:"queue_capacity"`

	Requests  int64 `json:"requests"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Rejected  int64 `json:"rejected"`
	Timeouts  int64 `json:"timeouts"`
	Deduped   int64 `json:"deduped"`

	CacheEntries  int     `json:"cache_entries"`
	CacheCapacity int     `json:"cache_capacity"`
	CacheHits     int64   `json:"cache_hits"`
	CacheMisses   int64   `json:"cache_misses"`
	CacheHitRate  float64 `json:"cache_hit_rate"`

	Simulations int64 `json:"simulations"`

	// Streaming telemetry: StreamedRuns counts simulations that ran
	// through Options.Source, PeakInuseBytes is the live-heap high-water
	// mark across them, and LastRefsPerSec is the most recent streamed
	// run's throughput. TraceStore appears once the content-addressed
	// store has been touched.
	StreamedRuns   int64             `json:"streamed_runs"`
	PeakInuseBytes int64             `json:"peak_inuse_bytes"`
	LastRefsPerSec float64           `json:"last_refs_per_sec"`
	TraceStore     *tracestore.Stats `json:"trace_store,omitempty"`

	// LatencyHit covers requests answered from the result cache;
	// LatencyMiss covers requests that waited on a computed run (their
	// own or a deduplicated leader's). Separate series keep cache hits
	// from masking pool saturation.
	LatencyHit  LatencySummary `json:"latency_hit"`
	LatencyMiss LatencySummary `json:"latency_miss"`
}

// Snapshot collects the current service statistics.
func (s *Server) Snapshot() Stats {
	st := Stats{
		Draining:       s.draining.Load(),
		Workers:        s.cfg.Workers,
		QueueDepth:     s.pool.depth(),
		QueueCapacity:  s.cfg.QueueDepth,
		Requests:       s.requests.Load(),
		Completed:      s.completed.Load(),
		Failed:         s.failed.Load(),
		Rejected:       s.rejected.Load(),
		Timeouts:       s.timeouts.Load(),
		Deduped:        s.deduped.Load(),
		CacheEntries:   s.cache.len(),
		CacheCapacity:  s.cfg.CacheEntries,
		CacheHits:      s.cacheHits.Load(),
		CacheMisses:    s.cacheMiss.Load(),
		Simulations:    s.runs.Load(),
		StreamedRuns:   s.streamed.Load(),
		PeakInuseBytes: s.peakInuse.Load(),
		LastRefsPerSec: math.Float64frombits(s.lastRefsPerSec.Load()),
		LatencyHit:     Summarize(&s.latencyHit),
		LatencyMiss:    Summarize(&s.latencyMiss),
	}
	if lookups := st.CacheHits + st.CacheMisses; lookups > 0 {
		st.CacheHitRate = float64(st.CacheHits) / float64(lookups)
	}
	s.storeMu.Lock()
	if s.store != nil {
		ts := s.store.Stats()
		st.TraceStore = &ts
	}
	s.storeMu.Unlock()
	return st
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		// The 503 here is a health probe's "take me out of rotation",
		// not a v1 API error: load balancers read the status document,
		// not the error envelope.
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"}) //ppcvet:ignore health draining body is a status document for probes, not a v1 API error
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}
