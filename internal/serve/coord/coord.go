// Package coord is the coordinator role of a sweep cluster: it accepts
// a whole sweep grid as one job (POST /v1/jobs), expands it into cells,
// shards the cells across a fleet of worker backends by consistent-hash
// routing on the canonical cache key — so each worker's LRU result
// cache owns a disjoint slice of key space instead of duplicating the
// hot set — streams cell results back as NDJSON while they complete,
// requeues cells from failed workers onto the survivors, and persists
// completed grids so an identical resubmission is served from storage
// with zero recomputed cells.
//
// v1 endpoints (see docs/api-v1.md):
//
//	POST /v1/jobs     submit a sweep grid; chunked NDJSON stream out
//	POST /v1/run      proxy one simulation to the worker owning its key
//	GET  /v1/healthz  liveness and fleet size
//	GET  /v1/statsz   per-job counters, shard skew, stream lag
//
// The fleet can be remote ppc-serve processes (HTTPBackend), in-process
// serve.Servers (LocalBackend — the embedded single-process mode), or a
// mix.
package coord

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"ppcsim/internal/obs"
	"ppcsim/internal/serve"
)

// Config parameterizes a Coordinator. The zero value of each field
// selects the noted default.
type Config struct {
	// Backends is the worker fleet. Required, non-empty, unique names.
	Backends []Backend
	// Replicas is the number of virtual ring points per backend
	// (default 64).
	Replicas int
	// PerBackend is the number of cells kept in flight per backend
	// (default 2 — workers pipeline one queued cell behind each running
	// one without tripping their own backpressure).
	PerBackend int
	// MaxAttempts bounds how many times one cell is tried before it is
	// failed permanently (default len(Backends)+1).
	MaxAttempts int
	// Backoff is the pause before retrying a cell on a backend that
	// answered 429 (default 50ms).
	Backoff time.Duration
	// MaxBodyBytes bounds the /v1/jobs request body (default 8 MiB, the
	// same limit workers apply, since a job body can carry an inline
	// trace).
	MaxBodyBytes int64
	// MaxCells bounds a job's grid expansion (default 1024).
	MaxCells int
	// Store persists completed grids (default an in-process MemStore;
	// use DirStore to survive restarts).
	Store Store
}

// Coordinator shards sweep jobs across a worker fleet. Create with
// New, expose via Handler.
type Coordinator struct {
	cfg        Config
	ring       *ring
	names      []string // backend names, sorted for deterministic output
	byName     map[string]Backend
	perBackend map[string]*backendCounters
	mux        *http.ServeMux

	// Job and cell lifecycle counters (see /v1/statsz).
	jobsAccepted   obs.Counter
	jobsCompleted  obs.Counter
	jobsFailed     obs.Counter
	jobsFromStore  obs.Counter
	jobsActive     obs.Gauge
	cellsTotal     obs.Counter
	cellsDone      obs.Counter
	cellsRetried   obs.Counter
	cellsFailed    obs.Counter
	cellsFromStore obs.Counter
	proxiedRuns    obs.Counter
	// Trace-store plumbing: uploads accepted at the coordinator's
	// /v1/traces endpoint and blobs copied worker→worker by job
	// preflight.
	traceUploads     obs.Counter
	tracesReplicated obs.Counter
	// streamLag measures result-ready → flushed-to-client per cell: a
	// growing lag means the client (or the coordinator's write path) is
	// the bottleneck, not the fleet.
	streamLag obs.SyncHistogram
}

// backendCounters is the per-worker slice of the coordinator's stats.
type backendCounters struct {
	assigned  obs.Counter // cells routed to this backend (incl. reroutes)
	completed obs.Counter // cells it finished successfully
	failed    obs.Counter // run attempts that errored on it
}

// New builds a Coordinator over a fixed fleet.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("coord: at least one backend is required")
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 64
	}
	if cfg.PerBackend <= 0 {
		cfg.PerBackend = 2
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = len(cfg.Backends) + 1
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 50 * time.Millisecond
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.MaxCells <= 0 {
		cfg.MaxCells = 1024
	}
	if cfg.Store == nil {
		cfg.Store = NewMemStore()
	}
	c := &Coordinator{
		cfg:        cfg,
		byName:     make(map[string]Backend, len(cfg.Backends)),
		perBackend: make(map[string]*backendCounters, len(cfg.Backends)),
		mux:        http.NewServeMux(),
	}
	for _, b := range cfg.Backends {
		name := b.Name()
		if _, dup := c.byName[name]; dup {
			return nil, fmt.Errorf("coord: duplicate backend name %q", name)
		}
		c.byName[name] = b
		c.perBackend[name] = &backendCounters{}
		c.names = append(c.names, name)
	}
	sort.Strings(c.names)
	c.ring = newRing(c.names, cfg.Replicas)
	c.mux.HandleFunc("/v1/jobs", c.handleJobs)
	c.mux.HandleFunc("/v1/run", c.handleRun)
	c.mux.HandleFunc("/v1/traces/", c.handleTraces)
	c.mux.HandleFunc("/v1/healthz", c.handleHealthz)
	c.mux.HandleFunc("/v1/statsz", c.handleStatsz)
	c.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		serve.WriteError(w, http.StatusNotFound, fmt.Errorf("coord: no such endpoint %s", r.URL.Path))
	})
	return c, nil
}

// Handler returns the coordinator's HTTP handler.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// CellRecord is one NDJSON line of a job stream: a completed (or
// permanently failed) cell. Result carries the worker's response bytes
// verbatim, so a streamed cell is byte-identical to the same request
// answered by a single-node /v1/run.
type CellRecord struct {
	Type     string `json:"type"` // "cell"
	Index    int    `json:"index"`
	Key      string `json:"key"`
	Worker   string `json:"worker,omitempty"` // empty when replayed from the store
	Attempts int    `json:"attempts,omitempty"`
	// Cache is where the result came from: "miss" (computed), "hit" (the
	// worker's result cache), or "store" (the coordinator's job store).
	Cache string             `json:"cache,omitempty"`
	Error *serve.ErrorDetail `json:"error,omitempty"` // set iff the cell failed
	// RefsPerSec and PeakInuseBytes are the worker's wall-clock
	// observations of a streamed (trace_spec/trace_hash) cell — transport
	// metadata, deliberately outside Result so stored grids replay
	// byte-identical results whatever machine computed them. Zero for
	// materialized cells, cache hits, and store replays.
	RefsPerSec     float64         `json:"refs_per_sec,omitempty"`
	PeakInuseBytes int64           `json:"peak_inuse_bytes,omitempty"`
	Result         json.RawMessage `json:"result,omitempty"`
}

// Summary is the terminal NDJSON record of a job stream.
type Summary struct {
	Type           string         `json:"type"` // "summary"
	JobKey         string         `json:"job_key"`
	Complete       bool           `json:"complete"`
	CellsTotal     int            `json:"cells_total"`
	CellsDone      int            `json:"cells_done"`
	CellsFailed    int            `json:"cells_failed"`
	CellsRetried   int            `json:"cells_retried"`
	CellsFromStore int            `json:"cells_from_store"`
	CacheHits      int            `json:"cache_hits"` // worker result-cache hits
	Workers        map[string]int `json:"workers,omitempty"`
	ElapsedMs      float64        `json:"elapsed_ms"`
}

// cellTask is a cell plus its scheduling state.
type cellTask struct {
	cell Cell
	// req is the /v1/run request this cell posts to a worker, and body
	// its encoding; an embedded worker takes req, a remote one decodes
	// body.
	req      *serve.Request
	body     []byte
	attempts int
}

// record pairs a stream line with the instant its result became ready,
// for the stream-lag histogram.
type record struct {
	ready time.Time
	cell  CellRecord
}

// jobRun is the per-job scheduler: per-backend queues under one mutex,
// worker goroutines pulling only their own backend's cells, and
// dead-backend reroute that rehashes orphaned cells onto the survivors.
type jobRun struct {
	c   *Coordinator
	ctx context.Context

	mu   sync.Mutex
	cond *sync.Cond
	//ppcvet:guardedby mu
	queues map[string][]*cellTask
	//ppcvet:guardedby mu
	dead      map[string]bool
	remaining int  //ppcvet:guardedby mu
	retried   int  //ppcvet:guardedby mu
	closed    bool //ppcvet:guardedby mu
	aborted   bool //ppcvet:guardedby mu
	results   chan record
	wg        sync.WaitGroup
}

func (c *Coordinator) newJobRun(ctx context.Context, cells []Cell, timeoutMs float64) *jobRun {
	j := &jobRun{
		c:         c,
		ctx:       ctx,
		queues:    make(map[string][]*cellTask, len(c.names)),
		dead:      make(map[string]bool),
		remaining: len(cells),
		// Every cell emits exactly one record, so a buffer of len(cells)
		// means sends under the scheduler lock never block.
		results: make(chan record, len(cells)),
	}
	j.cond = sync.NewCond(&j.mu)
	for i := range cells {
		// Cells already validated each spec, and the job boundary the
		// timeout, so req is what ParseRequest would decode from body.
		req := &serve.Request{RunSpec: cells[i].Spec, TimeoutMs: timeoutMs}
		body, err := json.Marshal(req)
		if err != nil {
			// RunSpec contains only marshalable fields; unreachable.
			panic(err)
		}
		j.enqueueLocked(&cellTask{cell: cells[i], req: req, body: body}, "")
	}
	return j
}

// start spawns the per-backend worker goroutines.
func (j *jobRun) start() {
	for _, name := range j.c.names {
		b := j.c.byName[name]
		for i := 0; i < j.c.cfg.PerBackend; i++ {
			j.wg.Add(1)
			go func() {
				defer j.wg.Done()
				for {
					t := j.next(b.Name())
					if t == nil {
						return
					}
					j.runCell(b, t)
				}
			}()
		}
	}
}

// enqueueLocked routes a task to preferred (when alive) or to the ring
// owner among live backends. Caller holds j.mu — which newJobRun does
// implicitly, being single-threaded before start.
func (j *jobRun) enqueueLocked(t *cellTask, preferred string) {
	name := preferred
	if name == "" || j.dead[name] {
		name = j.c.ring.owner(t.cell.Key, j.dead)
	}
	if name == "" {
		j.failLocked(t, http.StatusBadGateway,
			fmt.Errorf("coord: no live backend for cell %d after %d attempts", t.cell.Index, t.attempts))
		return
	}
	j.c.perBackend[name].assigned.Inc()
	j.queues[name] = append(j.queues[name], t)
	j.cond.Broadcast()
}

// next blocks until a cell for backend name is available, returning nil
// when the job is finished, aborted, or the backend is dead with an
// empty queue.
func (j *jobRun) next(name string) *cellTask {
	j.mu.Lock()
	defer j.mu.Unlock()
	for {
		if j.closed {
			return nil
		}
		if q := j.queues[name]; len(q) > 0 {
			t := q[0]
			j.queues[name] = q[1:]
			return t
		}
		if j.dead[name] {
			return nil
		}
		j.cond.Wait()
	}
}

// emitLocked sends a stream record unless the job already closed.
func (j *jobRun) emitLocked(rec CellRecord) {
	if !j.closed {
		j.results <- record{ready: time.Now(), cell: rec}
	}
}

// doneLocked retires one cell; the last one closes the stream.
func (j *jobRun) doneLocked() {
	j.remaining--
	if j.remaining == 0 && !j.closed {
		j.closed = true
		close(j.results)
	}
	j.cond.Broadcast()
}

// failLocked permanently fails a cell, emitting its error record.
func (j *jobRun) failLocked(t *cellTask, status int, err error) {
	j.c.cellsFailed.Inc()
	env := serve.Envelope(status, err)
	j.emitLocked(CellRecord{
		Type:     "cell",
		Index:    t.cell.Index,
		Key:      t.cell.Key,
		Attempts: t.attempts,
		Error:    &env.Error,
	})
	j.doneLocked()
}

// abortLocked tears the job down after a client disconnect: no more
// scheduling, stream closed, workers unblocked.
func (j *jobRun) abortLocked() {
	j.aborted = true
	if !j.closed {
		j.closed = true
		close(j.results)
	}
	j.cond.Broadcast()
}

// markDeadLocked excludes a backend for the rest of the job and
// rehashes its queued cells onto the survivors.
func (j *jobRun) markDeadLocked(name string) {
	if j.dead[name] {
		return
	}
	j.dead[name] = true
	orphans := j.queues[name]
	j.queues[name] = nil
	for _, t := range orphans {
		j.retried++
		j.c.cellsRetried.Inc()
		j.enqueueLocked(t, "")
	}
	j.cond.Broadcast()
}

// runCell executes one attempt of a cell on a backend and routes the
// outcome: emit on success, backoff-retry on busy, permanent-fail on
// invalid, mark-dead-and-reroute on transport failure.
func (j *jobRun) runCell(b Backend, t *cellTask) {
	t.attempts++
	result, meta, err := b.Run(serve.WithRequest(j.ctx, t.body, t.req, t.cell.Key), t.body)
	name := b.Name()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return
	}
	if err == nil {
		j.c.perBackend[name].completed.Inc()
		j.c.cellsDone.Inc()
		cache := "miss"
		if meta.CacheHit {
			cache = "hit"
		}
		j.emitLocked(CellRecord{
			Type:           "cell",
			Index:          t.cell.Index,
			Key:            t.cell.Key,
			Worker:         name,
			Attempts:       t.attempts,
			Cache:          cache,
			RefsPerSec:     meta.RefsPerSec,
			PeakInuseBytes: meta.PeakInuseBytes,
			Result:         result,
		})
		j.doneLocked()
		return
	}
	if j.ctx.Err() != nil {
		// The client went away; the backend error is just its echo.
		j.abortLocked()
		return
	}
	j.c.perBackend[name].failed.Inc()
	ce := classify(err)
	switch {
	case ce.kind == errPermanent:
		j.failLocked(t, ce.status, ce.err)
	case t.attempts >= j.c.cfg.MaxAttempts:
		j.failLocked(t, http.StatusBadGateway,
			fmt.Errorf("coord: cell %d failed %d attempts, last: %w", t.cell.Index, t.attempts, ce.err))
	case ce.kind == errBusy:
		// Backpressure: pause outside the lock, then try the same backend
		// again — its queue drains in bounded time.
		j.mu.Unlock()
		time.Sleep(j.c.cfg.Backoff)
		j.mu.Lock()
		if j.closed {
			return
		}
		j.retried++
		j.c.cellsRetried.Inc()
		j.enqueueLocked(t, name)
	default: // transient: the worker is gone
		j.markDeadLocked(name)
		j.retried++
		j.c.cellsRetried.Inc()
		j.enqueueLocked(t, "")
	}
}
