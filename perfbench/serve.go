package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"ppcsim"
	"ppcsim/internal/load"
	"ppcsim/internal/serve"
	"ppcsim/internal/serve/coord"
)

// serve-v1 drives an in-process coordinator with two embedded workers
// (one simulation slot each) over HTTP on 127.0.0.1: an open-loop phase
// at a fixed rate, then cold /v1/jobs grids back to back.
//
// The rate keeps the two connections about an eighth busy, so a request
// measures service, not queueing. At 1000 req/s they are busy half the
// time on the reference host, 30-40% of requests leave late, and the
// median falls between the cache-hit mode (0.15 ms) and the queued mode
// (1-2 ms), landing in either from one run to the next.
//
// p50_ms is the median latency of the requests that ran a simulation
// (the cold traces), at the reference speed (speed.go). A cache hit takes
// about 0.18 ms, mostly loopback syscalls and goroutine wake-ups, which
// the probe does not follow: the median over all requests spread by
// 10-25% over ten runs, scaled or not. A simulated request takes about
// 2 ms, mostly work the probe does follow: fourteen runs' medians spread
// by 13% as measured and by 8% scaled. The phase runs in segments with
// the probe between them, as a pass runs cells, so each segment's median
// is scaled by the probes on either side of it.
//
// The coordinator routes each job cell to a worker by a hash of its key,
// so a job's cells split unevenly between the two workers, and the job's
// wall time is the busier worker's. Jobs of 48 small cells split more
// evenly than jobs of 24 large ones: ten runs' refs_per_s spread by 6%
// against 12%.
const (
	serveRate     = 250.0 // requests per second in the fixed-rate phase
	serveSegments = 5     // segments of the fixed-rate phase that report latency, after one warm-up segment
	serveConns    = 2     // client connections: one per CPU of the reference host
	coldRefs      = 2000
	jobRefs       = 25_000 // job cells: small enough for a dozen jobs a run, so the median job is steady
	jobWindow     = 1000
)

// serveMix is the fixed-rate traffic: a cached pool and unique cold traces.
var serveMix = load.Mix{Cached: 70, Cold: 30}

// spanHeader carries a client span ID to the coordinator.
const spanHeader = "X-Perfbench-Span"

type spanKey struct{}

// simTally accumulates what the cluster's simulations did during one
// phase.
type simTally struct {
	runnerNs int64 // time in serve.Config.Runner
	layers   layerTimes
	engineNs float64
	refs     int64
	counts   simCounts
	rates    algRates
	jobCells []cell // streamed (job) cells, for the worst-cell metrics
	jobRuns  []cellRun
}

func (a *simTally) add(b simTally) {
	a.runnerNs += b.runnerNs
	a.layers.add(b.layers)
	a.engineNs += b.engineNs
	a.refs += b.refs
	a.counts.add(b.counts)
	a.jobCells = append(a.jobCells, b.jobCells...)
	a.jobRuns = append(a.jobRuns, b.jobRuns...)
}

// serveTracer wraps the cluster's public boundaries: the workers'
// Runner, the coordinator's backends, and the coordinator's handler.
type serveTracer struct {
	layers *timerCost // when set, time each layer inside a simulation, corrected by it
	spans  *spanLog
	mu     sync.Mutex
	tally  simTally //ppcvet:guardedby mu
}

func newServeTracer(layers *timerCost, spans *spanLog) *serveTracer {
	return &serveTracer{layers: layers, spans: spans, tally: simTally{rates: algRates{}}}
}

// take returns the tally since the last take and starts a new one.
func (t *serveTracer) take() simTally {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.tally
	t.tally = simTally{rates: algRates{}}
	return out
}

func (t *serveTracer) runner(worker string) func(context.Context, ppcsim.Options) (ppcsim.Result, error) {
	return func(ctx context.Context, opts ppcsim.Options) (ppcsim.Result, error) {
		var (
			lt  layerTimes
			res ppcsim.Result
			err error
		)
		start := time.Now()
		if t.layers != nil {
			res, err = runTraced(ctx, opts, &lt)
			lt.correct(*t.layers)
		} else {
			res, err = ppcsim.RunContext(ctx, opts)
		}
		end := time.Now()
		t.spans.add(t.spans.newID(), 0, "simulate", worker, start, end)
		if err != nil {
			return res, err
		}
		ns := int64(end.Sub(start))
		var refs int64
		if opts.Source != nil {
			refs = opts.Source.Meta().Refs
		} else {
			refs = int64(len(opts.Trace.Refs))
		}
		t.mu.Lock()
		defer t.mu.Unlock()
		t.tally.runnerNs += ns
		t.tally.layers.add(lt)
		t.tally.engineNs += float64(ns - lt.selfNs() - lt.TimerNs)
		t.tally.refs += refs
		t.tally.counts.addResult(res, refs)
		t.tally.rates.add(string(opts.Algorithm), ns, refs)
		if opts.Source != nil {
			family := fmt.Sprintf("%s/%s/c%d", opts.Source.Meta().Name, opts.Algorithm, opts.CacheBlocks)
			t.tally.jobCells = append(t.tally.jobCells, cell{family: family, disks: opts.Disks, refs: refs})
			t.tally.jobRuns = append(t.tally.jobRuns, cellRun{ns: ns})
		}
		return res, nil
	}
}

// timedBackend wraps a worker; embedding the LocalBackend forwards its
// TraceBackend methods.
type timedBackend struct {
	*coord.LocalBackend
	spans *spanLog
}

func (b *timedBackend) Run(ctx context.Context, body []byte) ([]byte, serve.RunMeta, error) {
	start := time.Now()
	out, meta, err := b.LocalBackend.Run(ctx, body)
	parent, _ := ctx.Value(spanKey{}).(int64)
	b.spans.add(b.spans.newID(), parent, "worker", b.Name(), start, time.Now())
	return out, meta, err
}

// middleware records the coordinator's span for each request, parented
// to the client span named in spanHeader.
func (t *serveTracer) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		id, start := t.spans.newID(), time.Now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, id)))
		t.spans.add(id, parent, "coord", "coord", start, time.Now())
	})
}

// cluster is the coordinator, its two workers and the HTTP listener,
// with the client that reaches them.
type cluster struct {
	url     string
	client  *http.Client
	srv     *http.Server
	served  chan error
	workers []*serve.Server
}

// startCluster starts a cluster; with t set, its runners and backends
// report to t, and with t.spans set, the coordinator records spans too.
func startCluster(t *serveTracer) (*cluster, error) {
	c := &cluster{served: make(chan error, 1)}
	var backends []coord.Backend
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("worker-%d", i)
		cfg := serve.Config{Workers: 1}
		if t != nil {
			cfg.Runner = t.runner(name)
		}
		w := serve.New(cfg)
		c.workers = append(c.workers, w)
		lb := coord.NewLocalBackend(name, w)
		if t != nil && t.spans != nil {
			backends = append(backends, &timedBackend{LocalBackend: lb, spans: t.spans})
		} else {
			backends = append(backends, lb)
		}
	}
	co, err := coord.New(coord.Config{Backends: backends})
	if err != nil {
		c.closeWorkers()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.closeWorkers()
		return nil, err
	}
	var h http.Handler = co.Handler()
	if t != nil && t.spans != nil {
		h = t.middleware(h)
	}
	c.url = "http://" + ln.Addr().String()
	c.srv = &http.Server{Handler: h}
	go func() { c.served <- c.srv.Serve(ln) }()
	c.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     serveConns,
		MaxIdleConnsPerHost: serveConns,
		DisableCompression:  true,
	}}
	return c, nil
}

func (c *cluster) closeWorkers() {
	for _, w := range c.workers {
		w.Close()
	}
}

// close stops the listener and waits for the server loop, then drains
// the workers.
func (c *cluster) close() {
	c.client.CloseIdleConnections()
	c.srv.Close()
	<-c.served
	c.closeWorkers()
}

// post sends one body and reads the whole response.
func (c *cluster) post(path string, body []byte, span int64) (status int, data []byte, hit bool, err error) {
	req, err := http.NewRequest(http.MethodPost, c.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	if span != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(span, 10))
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, false, err
	}
	defer resp.Body.Close()
	data, err = io.ReadAll(resp.Body)
	return resp.StatusCode, data, resp.Header.Get("X-Cache") == "hit", err
}

// prime runs every cached-pool key once, so measured requests for them
// are result-cache hits. It returns one error (or nil) per pool entry.
//
// It sends one request at a time. With two connections, the set-up took
// 0.14 s when their requests went to different workers and 0.23 s when
// they queued on the same one, and a run's median set-up landed in
// either: eight runs' medians spread by 35%. One at a time, eight runs
// taken in turn with those spread by 9%.
func (c *cluster) prime(pool []load.GenRequest) []error {
	errs := make([]error, len(pool))
	for i, r := range pool {
		status, _, _, err := c.post("/v1/run", r.Body, 0)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("priming %s: status %d", r.Key, status)
		}
		errs[i] = err
	}
	return errs
}

// expectedBody computes a /v1/run response body locally, without the
// serving stack: the reference the served bytes must equal.
func expectedBody(body []byte) ([]byte, error) {
	req, err := serve.ParseRequest(body)
	if err != nil {
		return nil, err
	}
	opts, cleanup, err := req.BuildOptions(serve.SourceEnv{LoadTrace: ppcsim.NewTrace})
	if err != nil {
		return nil, err
	}
	defer cleanup()
	res, err := ppcsim.Run(opts)
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}

// request is one timed request of the fixed-rate phase.
type request struct {
	due  time.Duration // offset of its due instant from the phase start
	late time.Duration // send time - due
	lat  time.Duration // completion - due, less any timer lag (see fixedPhase)
	svc  time.Duration // completion - send
	hit  bool
	err  error
}

// fixedPhase sends the generator's requests on a seeded open-loop
// timeline at serveRate for dur, over serveConns connections. Each
// request is timed from its due instant, so a request that waits for a
// busy connection counts that wait.
func (c *cluster) fixedPhase(gen *load.Generator, seed int64, dur time.Duration, expected map[string][]byte, spans *spanLog) []request {
	tl := load.NewTimeline(serveRate, dur, 0.5, rand.New(rand.NewSource(seed)))
	type item struct {
		i   int
		req load.GenRequest
	}
	// Bodies are generated ahead of their due instants; the buffer bounds
	// the cold bodies held in memory at once (about 27 KB each).
	items := make(chan item, 256)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(items)
		for i := range tl {
			select {
			case items <- item{i, gen.Next(serveMix)}:
			case <-stop:
				return
			}
		}
	}()
	out := make([]request, len(tl))
	start := time.Now()
	var senders sync.WaitGroup
	for k := 0; k < serveConns; k++ {
		senders.Add(1)
		go func(k int) {
			defer senders.Done()
			track := fmt.Sprintf("client-%d", k)
			for it := range items {
				due := start.Add(tl[it.i])
				from := due
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
					// Go timers wake with up to about a millisecond of lag;
					// that lag is the generator's, so a sender that slept
					// starts the clock when it wakes.
					from = time.Now()
				}
				id := spans.newID()
				sent := time.Now()
				status, body, hit, err := c.post("/v1/run", it.req.Body, id)
				done := time.Now()
				spans.add(id, 0, "client", track, sent, done)
				if err == nil {
					err = checkRunResponse(it.req, status, body, expected)
				}
				out[it.i] = request{due: tl[it.i], late: sent.Sub(due), lat: done.Sub(from), svc: done.Sub(sent), hit: hit, err: err}
			}
		}(k)
	}
	senders.Wait()
	close(stop)
	wg.Wait()
	return out
}

// checkRunResponse checks one /v1/run response: a 200, the locally
// computed bytes for a pool key, and a consistent Result for a cold trace.
func checkRunResponse(req load.GenRequest, status int, body []byte, expected map[string][]byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s request: status %d: %.200s", req.Class, status, body)
	}
	if want, ok := expected[req.Key]; ok {
		if !bytes.Equal(body, want) {
			return fmt.Errorf("pool key %s: served body differs from the local run", req.Key)
		}
		return nil
	}
	var res ppcsim.Result
	if err := json.Unmarshal(body, &res); err != nil {
		return fmt.Errorf("%s response: %w", req.Class, err)
	}
	return checkResult(res, coldRefs, res.Disks)
}

// job is one /v1/jobs grid's outcome.
type job struct {
	wall       time.Duration
	allocBytes uint64
	refs       int64
	results    [][]byte // cell results by index
	spec       []byte
}

func jobSpec(seed int64, j int, refs int64) ([]byte, error) {
	window := jobWindow
	return json.Marshal(coord.JobSpec{
		RunSpec: serve.RunSpec{
			TraceSpec: &serve.TraceSpec{
				Name: fmt.Sprintf("zipf-s%d-j%d", seed, j), Refs: refs, Pattern: "zipf", Seed: seed*1_000_003 + int64(j),
			},
			Window: &window,
		},
		Algorithms: []string{"demand", "fixed-horizon", "aggressive", "forestall"},
		DiskCounts: []int{1, 4, 16},
		CacheSizes: []int{320, 640, 1280, 2560},
	})
}

// runJob posts one grid and reads its NDJSON stream to the summary.
func (c *cluster) runJob(seed int64, j int, refs int64, spans *spanLog) (job, error) {
	body, err := jobSpec(seed, j, refs)
	if err != nil {
		return job{}, err
	}
	out := job{spec: body}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id, start := spans.newID(), time.Now()
	status, data, _, err := c.post("/v1/jobs", body, id)
	out.wall = time.Since(start)
	spans.add(id, 0, "client-job", "client-0", start, start.Add(out.wall))
	runtime.ReadMemStats(&after)
	out.allocBytes = after.TotalAlloc - before.TotalAlloc
	if err != nil {
		return out, err
	}
	if status != http.StatusOK {
		return out, fmt.Errorf("job %d: status %d: %.200s", j, status, data)
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var summary coord.Summary
	for sc.Scan() {
		var rec coord.CellRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return out, fmt.Errorf("job %d stream: %w", j, err)
		}
		if rec.Type == "summary" {
			if err := json.Unmarshal(sc.Bytes(), &summary); err != nil {
				return out, fmt.Errorf("job %d summary: %w", j, err)
			}
			continue
		}
		if rec.Error != nil {
			return out, fmt.Errorf("job %d cell %d: %s", j, rec.Index, rec.Error.Message)
		}
		for len(out.results) <= rec.Index {
			out.results = append(out.results, nil)
		}
		out.results[rec.Index] = rec.Result
	}
	if err := sc.Err(); err != nil {
		return out, err
	}
	if !summary.Complete || summary.CellsDone != len(out.results) {
		return out, fmt.Errorf("job %d: incomplete: %+v", j, summary)
	}
	out.refs = int64(len(out.results)) * refs
	return out, nil
}

// checkJob checks every cell of a finished job, and for spot-checked
// cells compares the served bytes with a local run of the same spec.
func checkJob(rep *workloadReport, jb job, refs int64, spot []int) {
	for _, raw := range jb.results {
		var res ppcsim.Result
		err := json.Unmarshal(raw, &res)
		if err == nil {
			err = checkResult(res, refs, res.Disks)
		}
		rep.check(err)
	}
	spec, err := coord.ParseJobSpec(jb.spec)
	if err != nil {
		rep.check(err)
		return
	}
	cells, err := spec.Cells(1 << 10)
	if err != nil {
		rep.check(err)
		return
	}
	for _, i := range spot {
		body, err := json.Marshal(serve.Request{RunSpec: cells[i].Spec})
		if err == nil {
			var want []byte
			if want, err = expectedBody(body); err == nil && !bytes.Equal(want, jb.results[i]) {
				err = fmt.Errorf("job cell %d: served result differs from the local run", i)
			}
		}
		rep.check(err)
	}
}

// serveDigest folds the pool's results and the first job's cells.
func serveDigest(expected map[string][]byte, first job) string {
	keys := make([]string, 0, len(expected))
	for k := range expected {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		d := sha256.Sum256(expected[k])
		h.Write(d[:])
	}
	for _, r := range first.results {
		d := sha256.Sum256(r)
		h.Write(d[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// servePlan sizes the serve-v1 run.
type servePlan struct {
	jobRefs int64
	minJobs int
}

func planServe(tiny bool) servePlan {
	if tiny {
		return servePlan{jobRefs: 5000, minJobs: 1}
	}
	return servePlan{jobRefs: jobRefs, minJobs: 3}
}

// setUpCluster starts a cluster and primes its pool, recording failures.
func setUpCluster(rep *workloadReport, t *serveTracer, pool []load.GenRequest) *cluster {
	c, err := startCluster(t)
	if err != nil {
		rep.check(fmt.Errorf("starting the cluster: %w", err))
		return nil
	}
	for _, err := range c.prime(pool) {
		rep.check(err)
	}
	return c
}

func runServe(o runOpts) *workloadReport {
	rep := newReport("serve-v1", o)
	plan := planServe(o.tiny)
	gen, err := load.NewGenerator(&load.LoadSpec{Seed: o.seed, ColdRefs: coldRefs})
	if err != nil {
		rep.check(err)
		return rep
	}
	var pool []load.GenRequest
	for _, r := range gen.PoolRequests() {
		if r.Class == load.ClassCached {
			pool = append(pool, r)
		}
	}
	expected := map[string][]byte{}
	for _, r := range pool {
		want, err := expectedBody(r.Body)
		if err != nil {
			rep.check(err)
			return rep
		}
		expected[r.Key] = want
	}
	// The fixed-rate phase takes 60% of the measuring time: a warm-up
	// segment and serveSegments segments of latency samples.
	fixed := time.Duration(o.seconds * 0.6 * float64(time.Second))

	if o.traced {
		runServeTraced(rep, o, plan, gen, pool, expected, fixed)
		return rep
	}

	pr := newProbe()
	var c *cluster
	setupS, setupRaw, err := timeSetups(func() error {
		if c = setUpCluster(rep, nil, pool); c == nil {
			return fmt.Errorf("cluster set-up failed")
		}
		return nil
	}, func() {
		c.close()
		c = nil
	}, pr)
	if err != nil {
		return rep
	}
	defer c.close()
	started := time.Now()

	// The fixed-rate phase runs as serveSegments+1 segments, the first a
	// warm-up. Each segment, like each job below and each simulation cell
	// (runPass), starts from a collected heap and is followed by the probe.
	seg := fixed / (serveSegments + 1)
	var reqs []request
	var p50, rawP50, p99 []float64
	before := pr.measure(probeWarm)
	for k := 0; k <= serveSegments; k++ {
		runtime.GC()
		rs := c.fixedPhase(gen, o.seed*(serveSegments+1)+int64(k), seg, expected, nil)
		after := pr.after(seg)
		reqs = append(reqs, rs...)
		all, simulated := requestLatencies(rep, rs)
		if k > 0 && len(simulated) > 0 {
			p := percentile(simulated, 0.50)
			p50 = append(p50, p*toRef(before, after))
			rawP50 = append(rawP50, p)
			p99 = append(p99, percentile(all, 0.99))
		}
		before = after
	}

	// Job -1 warms up: the first job of a run is often the slowest.
	if _, err := c.runJob(o.seed, -1, plan.jobRefs, nil); err != nil {
		rep.check(err)
		return rep
	}
	// Each job's time is scaled by the probes on either side of it.
	before = pr.measure(probeWarm)
	probes := []float64{before}
	var jobs []job
	var rps, rawRps, alloc []float64
	for j := 0; ; j++ {
		runtime.GC()
		jb, err := c.runJob(o.seed, j, plan.jobRefs, nil)
		if err != nil {
			rep.check(err)
			return rep
		}
		after := pr.after(jb.wall)
		probes = append(probes, after)
		jobs = append(jobs, jb)
		rps = append(rps, float64(jb.refs)/(jb.wall.Seconds()*toRef(before, after)))
		rawRps = append(rawRps, float64(jb.refs)/jb.wall.Seconds())
		before = after
		alloc = append(alloc, float64(jb.allocBytes)/float64(jb.refs))
		if len(jobs) >= plan.minJobs && time.Since(started)+jb.wall > time.Duration(o.seconds*float64(time.Second)) {
			break
		}
	}
	for j, jb := range jobs {
		var spot []int
		if j == 0 {
			spot = []int{0, len(jb.results) - 1}
		}
		checkJob(rep, jb, plan.jobRefs, spot)
	}
	rep.finishDigest(serveDigest(expected, jobs[0]))
	rep.set("refs_per_s", rps...)
	rep.set("alloc_bytes_per_ref", alloc...)
	rep.set("setup_s", setupS...)
	rep.set("p50_ms", p50...)
	rep.Detail = &detail{
		Serve: serveSummary(reqs, jobs),
		P99Ms: ptr(summarize("ms", p99)),
		Raw: &rawTimes{
			RefsPerS: ptr(summarize("refs/s", rawRps)),
			SetupS:   ptr(summarize("s", setupRaw)),
			P50Ms:    ptr(summarize("ms", rawP50)),
			ProbeNs:  ptr(summarize("ns", probes)),
		},
	}
	return rep
}

// requestLatencies checks each request into rep and returns the
// successful ones' latencies (ms), sorted: all of them, and those of the
// requests that ran a simulation (the result-cache misses).
func requestLatencies(rep *workloadReport, reqs []request) (all, simulated []float64) {
	for _, r := range reqs {
		rep.check(r.err)
		if r.err != nil {
			continue
		}
		ms := float64(r.lat) / 1e6
		all = append(all, ms)
		if !r.hit {
			simulated = append(simulated, ms)
		}
	}
	sort.Float64s(all)
	sort.Float64s(simulated)
	return all, simulated
}

// serveDetail is serve-v1's breakdown in the result file.
type serveDetail struct {
	Requests     int     `json:"requests"`
	CacheHitFrac float64 `json:"cache_hit_frac"`
	HitP50Ms     float64 `json:"hit_p50_ms"`     // due instant to completion, cache hits
	LateP99Ms    float64 `json:"late_p99_ms"`    // send time - due instant
	ServiceP50Ms float64 `json:"service_p50_ms"` // send to completion
	ServiceP99Ms float64 `json:"service_p99_ms"`
	Jobs         int     `json:"jobs"`
	JobCellsPerS float64 `json:"job_cells_per_s"` // median over jobs
}

func serveSummary(reqs []request, jobs []job) *serveDetail {
	d := &serveDetail{Requests: len(reqs), Jobs: len(jobs)}
	var late, svc, hit, cells []float64
	for _, r := range reqs {
		late = append(late, float64(r.late)/1e6)
		svc = append(svc, float64(r.svc)/1e6)
		if r.hit {
			hit = append(hit, float64(r.lat)/1e6)
		}
	}
	for _, jb := range jobs {
		cells = append(cells, float64(len(jb.results))/jb.wall.Seconds())
	}
	d.CacheHitFrac = ratio(float64(len(hit)), float64(len(reqs)))
	d.HitP50Ms = percentile(hit, 0.50)
	d.LateP99Ms = percentile(late, 0.99)
	d.ServiceP50Ms = percentile(svc, 0.50)
	d.ServiceP99Ms = percentile(svc, 0.99)
	d.JobCellsPerS = median(cells)
	return d
}

// requestLayers splits each fixed-phase request along its spans, client
// → coord → worker → simulate, into the time in the Runner (simulate
// spans), the worker's own time (worker span less its simulate spans),
// and the proxy time (client span less worker span: HTTP, coordinator
// routing), all in ms.
func requestLayers(spans []span) (simulate, worker, proxy []float64) {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	ms := func(s span) float64 { return float64(s.End.Sub(s.Start)) / 1e6 }
	for _, cl := range spans {
		if cl.Name != "client" {
			continue
		}
		for _, co := range children[cl.ID] {
			for _, w := range children[co.ID] {
				self := ms(w)
				for _, sim := range children[w.ID] {
					simulate = append(simulate, ms(sim))
					self -= ms(sim)
				}
				worker = append(worker, self)
				proxy = append(proxy, ms(cl)-ms(w))
			}
		}
	}
	return simulate, worker, proxy
}

// runServeTraced runs job 0 on an untraced cluster, then the fixed-rate
// phase and job 0 again on a fresh traced cluster, and reports the
// per-layer metrics.
func runServeTraced(rep *workloadReport, o runOpts, plan servePlan, gen *load.Generator, pool []load.GenRequest, expected map[string][]byte, fixed time.Duration) {
	tu := newServeTracer(nil, nil)
	cu := setUpCluster(rep, tu, pool)
	if cu == nil {
		return
	}
	tu.take()
	runtime.GC()
	ju, err := cu.runJob(o.seed, 0, plan.jobRefs, nil)
	cu.close()
	if err != nil {
		rep.check(err)
		return
	}
	untracedJob := tu.take()

	tc := measureTimerCost()
	tt := newServeTracer(&tc, o.spans)
	ct := setUpCluster(rep, tt, pool)
	if ct == nil {
		return
	}
	defer ct.close()
	tt.take()
	runtime.GC()
	reqs := ct.fixedPhase(gen, o.seed, fixed, expected, o.spans)
	requestLatencies(rep, reqs)
	fixedTally := tt.take()
	runtime.GC()
	jt, err := ct.runJob(o.seed, 0, plan.jobRefs, o.spans)
	if err != nil {
		rep.check(err)
		return
	}
	jobTally := tt.take()
	checkJob(rep, ju, plan.jobRefs, nil)
	checkJob(rep, jt, plan.jobRefs, nil)
	du, dt := serveDigest(expected, ju), serveDigest(expected, jt)
	if du != dt {
		rep.fail(fmt.Errorf("traced digest %s differs from untraced %s", dt, du))
	}
	rep.finishDigest(du)

	o.spans.adoptByContainment("simulate", "worker")
	simulate, worker, proxy := requestLayers(o.spans.snapshot())
	sum := serveSummary(reqs, []job{jt})
	all := fixedTally
	all.add(jobTally)
	setLayerShares(rep, all.layers, layerTimes{}, layerBase{
		wallNs: float64(all.runnerNs - all.layers.TimerNs), engineNs: all.engineNs, engineRefs: all.refs,
	})
	setAlgRates(rep, untracedJob.rates)
	setWorstCells(rep, untracedJob.jobCells, untracedJob.jobRuns)
	rep.set("serve.simulate_ms_p50", median(simulate))
	rep.set("serve.worker_ms_p50", median(worker))
	rep.set("serve.cache_hit_frac", sum.CacheHitFrac)
	rep.set("coord.proxy_ms_p50", median(proxy))
	rep.set("coord.job_busy_frac", ratio(float64(jobTally.runnerNs), 2*float64(jt.wall)))
	rep.set("load.late_p99_ms", sum.LateP99Ms)
	setCounts(rep, all.counts)
	rep.set("bench.trace_overhead", jt.wall.Seconds()/ju.wall.Seconds()-1)
	rep.Detail = &detail{Serve: sum}
}
