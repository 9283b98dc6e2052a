package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"ppcsim"
)

// TestMain runs every workload at test size. A child process of a test
// (run re-executes the test binary with -child) runs its workload here.
func TestMain(m *testing.M) {
	tinyInputs = true
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		code, err := run(os.Args[1:], os.Stdout, os.Stderr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
		os.Exit(code)
	}
	os.Exit(m.Run())
}

// benchmarkJSON is BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	if len(keys) != len(want) {
		t.Errorf("BENCHMARK.json has %d keys, want exactly %v", len(keys), want)
	}
	for _, k := range want {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b := readBenchmarkJSON(t)
	if strings.Join(b.Paths, ",") != "perfbench" {
		t.Errorf("paths = %v, want [perfbench]", b.Paths)
	}
	if strings.Join(b.Command, " ") != "bash perfbench/run.sh" {
		t.Errorf("command = %v", b.Command)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, want the -seconds default %d", b.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line", w.Name)
		}
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads = %v, code runs %v", names, workloadNames)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("end_to_end has %d metrics, code reports %d", len(b.EndToEnd), len(endToEnd))
	}
	var setupBound, maxBound float64
	for i, m := range b.EndToEnd {
		c := endToEnd[i]
		if m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better || m.Bound != c.Bound {
			t.Errorf("end_to_end[%d] = %+v, code has %+v", i, m, c)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = max(maxBound, m.Bound)
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %g is not the largest (%g)", setupBound, maxBound)
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer has %d metrics, code reports %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		c := perLayer[i]
		if m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better {
			t.Errorf("per_layer[%d] = %+v, code has %+v", i, m, c)
		}
	}
}

// TestEveryWorkloadEmitsEveryMetric runs each workload at test size
// through the command, child process included, untraced and traced, and
// checks the last line names every metric BENCHMARK.json lists.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	b := readBenchmarkJSON(t)
	units := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range b.EndToEnd {
		units[false][m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		units[true][m.Name] = m.Unit
	}
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", w, traced), func(t *testing.T) {
				trace := "0"
				if traced {
					trace = "1"
				}
				var stdout, stderr bytes.Buffer
				code, err := run([]string{"-workload", w, "-seed", "7", "-seconds", "1", "-trace", trace}, &stdout, &stderr)
				if err != nil || code != 0 {
					t.Fatalf("exit %d, err %v\n%s", code, err, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var line finalResult
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
					t.Fatal(err)
				}
				if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
					t.Errorf("correct %v, attempted %d, failed %d\n%s", line.Correct, line.Attempted, line.Failed, stderr.String())
				}
				want := units[traced]
				if len(line.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(line.Metrics), len(want))
				}
				for name, unit := range want {
					m, ok := line.Metrics[name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", name)
					case m.Unit != unit:
						t.Errorf("metric %s unit %q, want %q", name, m.Unit, unit)
					case !traced && !(m.Value > 0):
						t.Errorf("end-to-end metric %s = %g, want > 0", name, m.Value)
					}
				}
			})
		}
	}
}

// TestTracedResultsMatch checks that the timing wrappers change nothing
// the simulation computes, for every policy, materialized and streamed.
func TestTracedResultsMatch(t *testing.T) {
	tr, err := ppcsim.NewTrace("ld")
	if err != nil {
		t.Fatal(err)
	}
	src, err := ppcsim.LargeTraceSpec{Refs: 20_000, Blocks: 4096, Pattern: "zipf", Seed: 3}.Source()
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range ppcsim.Algorithms {
		for _, o := range []struct {
			name string
			opts ppcsim.Options
		}{
			{"materialized", ppcsim.Options{Trace: tr, Algorithm: alg, Disks: 4, PlacementSeed: 5}},
			{"streamed", ppcsim.Options{Source: src, Algorithm: alg, Disks: 4,
				Hints: &ppcsim.HintSpec{Fraction: 1, Accuracy: 1, Window: 500}}},
		} {
			want, werr := ppcsim.Run(o.opts)
			var lt layerTimes
			got, gerr := runTraced(nil, o.opts, &lt)
			if (werr != nil) != (gerr != nil) {
				t.Errorf("%s %s: untraced error %v, traced error %v", alg, o.name, werr, gerr)
				continue
			}
			if werr != nil {
				continue // reverse aggressive cannot stream, traced or not
			}
			wj, _ := json.Marshal(want)
			gj, _ := json.Marshal(got)
			if !bytes.Equal(wj, gj) {
				t.Errorf("%s %s: traced result differs\n got %s\nwant %s", alg, o.name, gj, wj)
			}
			if lt.Polls == 0 || lt.DiskCalls == 0 {
				t.Errorf("%s %s: wrappers saw %d polls and %d disk calls", alg, o.name, lt.Polls, lt.DiskCalls)
			}
			if o.opts.Source != nil && lt.TraceRefs != 20_000 {
				t.Errorf("%s %s: source wrapper saw %d refs, want 20000", alg, o.name, lt.TraceRefs)
			}
		}
	}
}

func TestVerdicts(t *testing.T) {
	ms := metricDef{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	around := func(c float64, spread float64, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = c + spread*float64(i%5-2)/2
		}
		return xs
	}
	for _, tc := range []struct {
		name           string
		parent, change []float64
		want           string
	}{
		{"faster in every pair", around(100, 1, 10), around(90, 1, 10), "better"},
		{"too few pairs to claim", around(100, 1, 6), around(90, 1, 6), "unchanged"},
		{"slower beyond the bound", around(100, 1, 10), around(115, 1, 10), "worse"},
		{"slower within the bound", around(100, 1, 10), around(104, 1, 10), "unchanged"},
		{"same", around(100, 1, 10), around(100, 1, 10), "unchanged"},
		{"parent spread wider than the bound", around(100, 30, 10), around(99, 30, 10), "unresolved"},
		{"gain inside the parent's spread", around(100, 4, 10), around(97, 4, 10), "unchanged"},
	} {
		if got, _ := verdict(ms, tc.parent, tc.change); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
	// Higher-is-better metrics flip the direction.
	rps := metricDef{Name: "refs_per_s", Unit: "refs/s", Better: "higher", Bound: 0.10}
	if got, _ := verdict(rps, around(100, 1, 10), around(110, 1, 10)); got != "better" {
		t.Errorf("higher is better: verdict %q", got)
	}
}

// TestRequestLayers builds the spans of two requests on one worker, the
// second queued behind the first's simulation, and checks each
// simulation is adopted by its own request and split out of it.
func TestRequestLayers(t *testing.T) {
	l := newSpanLog()
	at := func(ms float64) time.Time { return l.t0.Add(time.Duration(ms * float64(time.Millisecond))) }
	// B reaches the worker before A's simulation starts, so B's worker
	// span encloses A's simulation too; A's ends first.
	for _, r := range []struct {
		client, coord, worker, sim [2]float64
	}{
		{[2]float64{0, 10}, [2]float64{1, 9}, [2]float64{2, 8}, [2]float64{3, 7}},
		{[2]float64{2, 20}, [2]float64{2.2, 19}, [2]float64{2.5, 18}, [2]float64{7.5, 17}},
	} {
		cl, co := l.newID(), l.newID()
		l.add(cl, 0, "client", "client-0", at(r.client[0]), at(r.client[1]))
		l.add(co, cl, "coord", "coord", at(r.coord[0]), at(r.coord[1]))
		l.add(l.newID(), co, "worker", "worker-0", at(r.worker[0]), at(r.worker[1]))
		l.add(l.newID(), 0, "simulate", "worker-0", at(r.sim[0]), at(r.sim[1]))
	}
	// A worker span on another track never adopts.
	l.add(l.newID(), 0, "worker", "worker-1", at(0), at(30))
	l.adoptByContainment("simulate", "worker")
	sim, worker, proxy := requestLayers(l.snapshot())
	if want := []float64{4, 9.5}; !slices.Equal(sim, want) {
		t.Errorf("simulate = %v, want %v", sim, want)
	}
	if want := []float64{2, 6}; !slices.Equal(worker, want) {
		t.Errorf("worker self = %v, want %v", worker, want)
	}
	if want := []float64{4, 2.5}; !slices.Equal(proxy, want) {
		t.Errorf("proxy = %v, want %v", proxy, want)
	}
}

// TestProbeAllocatesNothing: the probe runs between timed cells, so any
// garbage it made would land in alloc_bytes_per_ref and in the next
// cell's collections.
func TestProbeAllocatesNothing(t *testing.T) {
	p := newProbe()
	if n := testing.AllocsPerRun(20, p.unit); n != 0 {
		t.Errorf("a probe unit makes %g allocations, want 0", n)
	}
	ns := p.measure(0)
	if ns <= 0 {
		t.Errorf("probe unit took %g ns", ns)
	}
	t.Logf("probe unit: %.0f ns here, %d ns on the reference host", ns, probeRefNs)
}

func TestToRef(t *testing.T) {
	if got := toRef(probeRefNs, probeRefNs); got != 1 {
		t.Errorf("at the reference speed, toRef = %g, want 1", got)
	}
	// A host at half speed runs the probe in twice the time, so its
	// intervals scale down by half.
	if got := toRef(1.5*probeRefNs, 2.5*probeRefNs); got != 0.5 {
		t.Errorf("at half speed, toRef = %g, want 0.5", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64 // statistics.quantiles(xs, n=4)
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{0.5, 9, 2.25, 7}, [3]float64{0.9375, 4.625, 8.5}},
	} {
		q1, med, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, med, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}
