package main

import (
	"math"
	"slices"
	"sort"

	"ppcsim"
)

// metricDef is one reported metric. The two tables below are the list
// BENCHMARK.json mirrors; TestBenchmarkJSONMatchesCode keeps them equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
}

// endToEnd is what a user of ppcsim sees. Untraced runs report every one
// of these on every workload. Host-time metrics carry the widest bound
// BENCHMARK.json allows: on the shared 2-vCPU reference host, neighbours
// slow memory-bound work by 10-30% for tens of seconds at a time, and
// even scaled to the reference speed (speed.go) ten runs of the same code
// spread by up to 12%. Peak RSS spreads by up to 11% with what the heap
// holds when a cell peaks. The p99 latency is in the result file but has
// no bound: vCPU steal moved serve-v1's by up to 85% between runs of the
// same code.
var endToEnd = []metricDef{
	{"refs_per_s", "refs/s", "higher", 0.25},
	{"alloc_bytes_per_ref", "B/ref", "lower", 0.02},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
}

// perLayer is what a traced run reports, named after the modules. A layer
// a workload never reaches reads 0.
var perLayer = slices.Concat([]metricDef{
	{"trace.decode_ns_per_ref", "ns/ref", "lower", 0},
	{"trace.share", "fraction", "lower", 0},
	{"policy.poll_ns", "ns", "lower", 0},
	{"policy.polls_per_ref", "polls/ref", "lower", 0},
	{"policy.idle_poll_frac", "fraction", "lower", 0},
	{"policy.share", "fraction", "lower", 0},
}, algRateMetrics(), []metricDef{
	{"revagg.schedule_share", "fraction", "lower", 0},
	{"revagg.poll_ns", "ns", "lower", 0},
	{"revagg.poll_share", "fraction", "lower", 0},
	{"revagg.forced_issue_frac", "fraction", "lower", 0},
	{"disk.service_ns", "ns", "lower", 0},
	{"disk.calls_per_ref", "calls/ref", "lower", 0},
	{"disk.share", "fraction", "lower", 0},
	{"engine.self_ns_per_ref", "ns/ref", "lower", 0},
	{"multi.refs_per_s", "refs/s", "higher", 0},
	{"cells.worst_refs_per_s", "refs/s", "higher", 0},
	{"cells.worst_over_1disk", "ratio", "higher", 0},
	{"serve.simulate_ms_p50", "ms", "lower", 0},
	{"serve.worker_ms_p50", "ms", "lower", 0},
	{"serve.cache_hit_frac", "fraction", "higher", 0},
	{"coord.proxy_ms_p50", "ms", "lower", 0},
	{"coord.job_busy_frac", "fraction", "higher", 0},
	{"load.late_p99_ms", "ms", "lower", 0},
	{"cache.hit_ratio", "fraction", "higher", 0},
	{"disk.fetches_per_ref", "fetches/ref", "lower", 0},
	{"engine.stall_frac", "fraction", "lower", 0},
	{"bench.trace_overhead", "fraction", "lower", 0},
	{"bench.calib_ms", "ms", "lower", 0},
})

// units maps every metric name to its unit.
var units = func() map[string]string {
	u := map[string]string{}
	for _, m := range slices.Concat(endToEnd, perLayer) {
		u[m.Name] = m.Unit
	}
	return u
}()

// algRateMetrics names policy.<alg>.refs_per_s for every algorithm: its
// simulated references per host second, from untraced runs.
func algRateMetrics() []metricDef {
	var out []metricDef
	for _, a := range ppcsim.Algorithms {
		out = append(out, metricDef{algRateMetric(string(a)), "refs/s", "higher", 0})
	}
	return out
}

func algRateMetric(alg string) string { return "policy." + alg + ".refs_per_s" }

// algRates accumulates host time and simulated references by algorithm.
type algRates map[string]struct{ ns, refs int64 }

func (a algRates) add(alg string, ns, refs int64) {
	r := a[alg]
	r.ns += ns
	r.refs += refs
	a[alg] = r
}

// rate is alg's references per second, or 0 when alg never ran.
func (a algRates) rate(alg string) float64 {
	r := a[alg]
	return ratio(float64(r.refs), float64(r.ns)/1e9)
}

// setAlgRates reports policy.<alg>.refs_per_s for every algorithm.
func setAlgRates(rep *workloadReport, a algRates) {
	for _, alg := range ppcsim.Algorithms {
		rep.set(algRateMetric(string(alg)), a.rate(string(alg)))
	}
}

// metricsFor returns the table a run reports.
func metricsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// summary is one metric over a run's samples.
type summary struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

func summarize(unit string, xs []float64) summary {
	q1, med, q3 := quartiles(xs)
	return summary{Unit: unit, Median: med, Q1: q1, Q3: q3, N: len(xs), Samples: xs}
}

// quartiles returns the first quartile, median and third quartile of xs
// by the method of Python's statistics.quantiles(xs, n=4) (its default,
// "exclusive"), so spreads read the same here and in any checker written
// against that function. One sample is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 { // i of 4 cut points
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), median(s), at(3)
}

// median of xs (which it does not modify).
func median(xs []float64) float64 {
	return percentile(xs, 0.5)
}

// percentile returns the q-quantile of xs, interpolating linearly between
// the closest ranks. It does not modify xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := xs
	if !sort.Float64sAreSorted(s) {
		s = append([]float64(nil), xs...)
		sort.Float64s(s)
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
