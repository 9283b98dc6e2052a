package coord

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"time"

	"ppcsim/internal/serve"
)

// readBody reads a bounded request body, writing the envelope error
// itself on failure.
func (c *Coordinator) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		serve.WriteError(w, http.StatusMethodNotAllowed, errors.New("coord: POST required"))
		return nil, false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, c.cfg.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			serve.WriteError(w, http.StatusRequestEntityTooLarge, err)
		} else {
			serve.WriteError(w, http.StatusBadRequest, err)
		}
		return nil, false
	}
	return body, true
}

// handleJobs is the sweep-grid entry point: expand, shard, stream.
func (c *Coordinator) handleJobs(w http.ResponseWriter, r *http.Request) {
	body, ok := c.readBody(w, r)
	if !ok {
		return
	}
	spec, err := ParseJobSpec(body)
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, err)
		return
	}
	cells, err := spec.Cells(c.cfg.MaxCells)
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, err)
		return
	}
	jobKey := JobKey(cells)
	c.jobsAccepted.Inc()
	c.cellsTotal.Add(int64(len(cells)))

	if stored := c.loadStored(jobKey, cells); stored != nil {
		c.streamStored(w, jobKey, cells, stored)
		return
	}
	if spec.TraceHash != "" {
		// Hash-named jobs pre-flight before any cell is scheduled: every
		// worker the ring can route to must hold the blob, so a rerouted
		// cell after a mid-job death still finds its trace.
		if err := c.preflightTrace(r.Context(), spec.TraceHash); err != nil {
			var pe *preflightError
			if errors.As(err, &pe) {
				serve.WriteError(w, pe.status, pe.err)
			} else {
				serve.WriteError(w, http.StatusBadGateway, err)
			}
			return
		}
	}
	c.streamLive(w, r, jobKey, cells, spec.TimeoutMs)
}

// loadStored returns the stored result for every current cell key, or
// nil when the store cannot satisfy the whole grid.
func (c *Coordinator) loadStored(jobKey string, cells []Cell) map[string]json.RawMessage {
	job, ok, err := c.cfg.Store.Load(jobKey)
	if !ok || err != nil {
		// A corrupt store entry degrades to recomputation, never to a
		// failed job.
		return nil
	}
	byKey := make(map[string]json.RawMessage, len(job.Cells))
	for _, sc := range job.Cells {
		byKey[sc.Key] = sc.Result
	}
	for i := range cells {
		if _, ok := byKey[cells[i].Key]; !ok {
			return nil
		}
	}
	return byKey
}

// streamStored replays a persisted grid: every cell record carries the
// stored bytes (still byte-identical to a fresh run, by determinism)
// and no worker is touched.
func (c *Coordinator) streamStored(w http.ResponseWriter, jobKey string, cells []Cell, byKey map[string]json.RawMessage) {
	start := time.Now()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Job-Cache", "hit")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for i := range cells {
		ready := time.Now()
		enc.Encode(CellRecord{
			Type:   "cell",
			Index:  cells[i].Index,
			Key:    cells[i].Key,
			Cache:  "store",
			Result: byKey[cells[i].Key],
		})
		if flusher != nil {
			flusher.Flush()
		}
		c.streamLag.Observe(float64(time.Since(ready)) / float64(time.Millisecond))
	}
	c.cellsFromStore.Add(int64(len(cells)))
	c.jobsFromStore.Inc()
	c.jobsCompleted.Inc()
	enc.Encode(Summary{
		Type:           "summary",
		JobKey:         jobKey,
		Complete:       true,
		CellsTotal:     len(cells),
		CellsDone:      len(cells),
		CellsFromStore: len(cells),
		ElapsedMs:      float64(time.Since(start)) / float64(time.Millisecond),
	})
	if flusher != nil {
		flusher.Flush()
	}
}

// streamLive runs the job on the fleet, streaming each cell as it
// completes and persisting the grid if every cell succeeded.
func (c *Coordinator) streamLive(w http.ResponseWriter, r *http.Request, jobKey string, cells []Cell, timeoutMs float64) {
	start := time.Now()
	c.jobsActive.Inc()
	defer c.jobsActive.Dec()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Job-Cache", "miss")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	run := c.newJobRun(r.Context(), cells, timeoutMs)
	run.start()

	var (
		stored    = make([]StoredCell, 0, len(cells))
		workers   = make(map[string]int, len(c.names))
		cacheHits int
		failed    int
	)
	for rec := range run.results {
		enc.Encode(rec.cell)
		if flusher != nil {
			flusher.Flush()
		}
		c.streamLag.Observe(float64(time.Since(rec.ready)) / float64(time.Millisecond))
		if rec.cell.Error != nil {
			failed++
			continue
		}
		workers[rec.cell.Worker]++
		if rec.cell.Cache == "hit" {
			cacheHits++
		}
		stored = append(stored, StoredCell{Index: rec.cell.Index, Key: rec.cell.Key, Result: rec.cell.Result})
	}
	run.wg.Wait()

	run.mu.Lock()
	retried, aborted := run.retried, run.aborted
	run.mu.Unlock()
	if aborted {
		// The client disconnected mid-stream; nobody is reading, and the
		// grid is incomplete — count the failure and stop.
		c.jobsFailed.Inc()
		return
	}
	complete := failed == 0 && len(stored) == len(cells)
	if complete {
		sort.Slice(stored, func(i, k int) bool { return stored[i].Index < stored[k].Index })
		// A failed save only costs a future recomputation.
		c.cfg.Store.Save(&StoredJob{JobKey: jobKey, Cells: stored})
		c.jobsCompleted.Inc()
	} else {
		c.jobsFailed.Inc()
	}
	enc.Encode(Summary{
		Type:         "summary",
		JobKey:       jobKey,
		Complete:     complete,
		CellsTotal:   len(cells),
		CellsDone:    len(stored),
		CellsFailed:  failed,
		CellsRetried: retried,
		CacheHits:    cacheHits,
		Workers:      workers,
		ElapsedMs:    float64(time.Since(start)) / float64(time.Millisecond),
	})
	if flusher != nil {
		flusher.Flush()
	}
}

// handleRun proxies one single simulation to the worker owning its
// canonical key, so a coordinator address serves the whole v1 surface:
// clients that only ever run single configs still populate (and profit
// from) the sharded caches.
func (c *Coordinator) handleRun(w http.ResponseWriter, r *http.Request) {
	body, ok := c.readBody(w, r)
	if !ok {
		return
	}
	req, err := serve.ParseRequest(body)
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, err)
		return
	}
	c.proxiedRuns.Inc()
	key := req.Key()
	// An embedded worker takes this decoding instead of parsing body again.
	ctx := serve.WithRequest(r.Context(), body, req, key)
	dead := make(map[string]bool)
	var lastErr error
	for range c.names {
		name := c.ring.owner(key, dead)
		if name == "" {
			break
		}
		c.perBackend[name].assigned.Inc()
		result, meta, err := c.byName[name].Run(ctx, body)
		if err == nil {
			c.perBackend[name].completed.Inc()
			xcache := "miss"
			if meta.CacheHit {
				xcache = "hit"
			}
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("X-Cache", xcache)
			w.Header().Set("X-Worker", name)
			if meta.Streamed {
				w.Header().Set("X-Streamed", "1")
				w.Header().Set("X-Refs-Per-Sec", strconv.FormatFloat(meta.RefsPerSec, 'f', 1, 64))
				w.Header().Set("X-Peak-Inuse-Bytes", strconv.FormatInt(meta.PeakInuseBytes, 10))
			}
			w.WriteHeader(http.StatusOK)
			w.Write(result)
			return
		}
		c.perBackend[name].failed.Inc()
		ce := classify(err)
		switch ce.kind {
		case errPermanent:
			serve.WriteError(w, ce.status, ce.err)
			return
		case errBusy:
			w.Header().Set("Retry-After", "1")
			serve.WriteError(w, http.StatusTooManyRequests, ce.err)
			return
		}
		dead[name] = true
		lastErr = ce.err
	}
	if lastErr == nil {
		lastErr = errors.New("coord: no live backend")
	}
	serve.WriteError(w, http.StatusBadGateway, fmt.Errorf("coord: all backends failed: %w", lastErr))
}

// WorkerStats is one backend's slice of the coordinator stats.
type WorkerStats struct {
	Name      string `json:"name"`
	Assigned  int64  `json:"assigned"`
	Completed int64  `json:"completed"`
	Failed    int64  `json:"failed"`
}

// Stats is the coordinator's /v1/statsz response.
type Stats struct {
	Backends []WorkerStats `json:"backends"`

	JobsAccepted  int64 `json:"jobs_accepted"`
	JobsCompleted int64 `json:"jobs_completed"`
	JobsFailed    int64 `json:"jobs_failed"`
	JobsFromStore int64 `json:"jobs_from_store"`
	JobsActive    int64 `json:"jobs_active"`

	CellsTotal     int64 `json:"cells_total"`
	CellsDone      int64 `json:"cells_done"`
	CellsRetried   int64 `json:"cells_retried"`
	CellsFailed    int64 `json:"cells_failed"`
	CellsFromStore int64 `json:"cells_from_store"`

	ProxiedRuns int64 `json:"proxied_runs"`

	// TraceUploads counts PUT /v1/traces accepted here; TracesReplicated
	// counts preflight worker→worker copies.
	TraceUploads     int64 `json:"trace_uploads"`
	TracesReplicated int64 `json:"traces_replicated"`

	// ShardSkew is max/mean of per-backend assigned cells (1 = perfectly
	// balanced, 0 = nothing assigned yet). Persistent skew means the key
	// space is hashing unevenly and the hot workers' caches are thrashing
	// while the cold workers' sit idle.
	ShardSkew float64 `json:"shard_skew"`

	// StreamLag is the per-cell result-ready → flushed distribution.
	StreamLag serve.LatencySummary `json:"stream_lag"`
}

// Snapshot collects the coordinator's current statistics.
func (c *Coordinator) Snapshot() Stats {
	st := Stats{
		JobsAccepted:     c.jobsAccepted.Load(),
		JobsCompleted:    c.jobsCompleted.Load(),
		JobsFailed:       c.jobsFailed.Load(),
		JobsFromStore:    c.jobsFromStore.Load(),
		JobsActive:       c.jobsActive.Load(),
		CellsTotal:       c.cellsTotal.Load(),
		CellsDone:        c.cellsDone.Load(),
		CellsRetried:     c.cellsRetried.Load(),
		CellsFailed:      c.cellsFailed.Load(),
		CellsFromStore:   c.cellsFromStore.Load(),
		ProxiedRuns:      c.proxiedRuns.Load(),
		TraceUploads:     c.traceUploads.Load(),
		TracesReplicated: c.tracesReplicated.Load(),
		StreamLag:        serve.Summarize(&c.streamLag),
	}
	var total, max int64
	for _, name := range c.names {
		bc := c.perBackend[name]
		ws := WorkerStats{
			Name:      name,
			Assigned:  bc.assigned.Load(),
			Completed: bc.completed.Load(),
			Failed:    bc.failed.Load(),
		}
		st.Backends = append(st.Backends, ws)
		total += ws.Assigned
		if ws.Assigned > max {
			max = ws.Assigned
		}
	}
	if total > 0 {
		mean := float64(total) / float64(len(c.names))
		st.ShardSkew = float64(max) / mean
	}
	return st
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "backends": len(c.names)})
}

func (c *Coordinator) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Snapshot())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// NewEmbeddedBackends starts n in-process worker servers — the
// single-binary deployment: ppc-coord with no -backends flag serves a
// whole (sharded) fleet from one process. The returned close function
// drains every worker.
func NewEmbeddedBackends(n int, scfg serve.Config) ([]Backend, func()) {
	if n <= 0 {
		n = 1
	}
	backends := make([]Backend, n)
	servers := make([]*serve.Server, n)
	for i := 0; i < n; i++ {
		servers[i] = serve.New(scfg)
		backends[i] = NewLocalBackend(fmt.Sprintf("local-%d", i), servers[i])
	}
	return backends, func() {
		for _, s := range servers {
			s.Close()
		}
	}
}
