package ppcsim_test

// One benchmark per table and figure of the paper's evaluation. Each
// benchmark runs the experiment's central configuration(s) and reports
// the simulated elapsed time as a custom metric (sim-sec/op), so
// `go test -bench=. -benchmem` both times the simulator and regenerates
// the headline numbers. The full tables are produced by
// `go run ./cmd/ppc-experiments`; the benchmarks use quarter-length
// traces so the whole suite stays fast.
//
// See DESIGN.md section 5 for the experiment index.

import (
	"fmt"
	"testing"

	"ppcsim"
	"ppcsim/internal/trace/tracetest"
)

// benchTrace returns a quarter-length bundled trace; generation is
// cached per process by tracetest, truncation is a cheap copy.
func benchTrace(b *testing.B, name string) *ppcsim.Trace {
	b.Helper()
	tr := tracetest.Bundled(b, name)
	return tr.Truncate(len(tr.Refs) / 4)
}

// benchRun executes one configuration b.N times and reports the simulated
// elapsed and stall times.
func benchRun(b *testing.B, opts ppcsim.Options) {
	b.Helper()
	var last ppcsim.Result
	for i := 0; i < b.N; i++ {
		r, err := ppcsim.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.ElapsedSec, "sim-sec")
	b.ReportMetric(last.StallTimeSec, "stall-sec")
	b.ReportMetric(float64(last.Fetches), "fetches")
}

// BenchmarkTable2CrossValidation runs the two drive models on xds (the
// simulator cross-check of Table 2).
func BenchmarkTable2CrossValidation(b *testing.B) {
	tr := benchTrace(b, "xds")
	b.Run("full-model", func(b *testing.B) {
		benchRun(b, ppcsim.Options{Trace: tr, Algorithm: ppcsim.FixedHorizon, Disks: 2})
	})
	b.Run("simple-model", func(b *testing.B) {
		benchRun(b, ppcsim.Options{Trace: tr, Algorithm: ppcsim.FixedHorizon, Disks: 2, SimpleDiskModel: true})
	})
}

// BenchmarkTable3TraceSummary times trace generation + stats for Table 3.
func BenchmarkTable3TraceSummary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		total := 0
		for _, tr := range ppcsim.AllTraces() {
			total += tr.Stats().Reads
		}
		if total == 0 {
			b.Fatal("no reads")
		}
	}
}

// BenchmarkFig2PostgresSelect: demand vs the prefetchers (Figure 2).
func BenchmarkFig2PostgresSelect(b *testing.B) {
	tr := benchTrace(b, "postgres-select")
	for _, alg := range []ppcsim.Algorithm{ppcsim.Demand, ppcsim.FixedHorizon, ppcsim.Aggressive} {
		b.Run(string(alg)+"/4d", func(b *testing.B) {
			benchRun(b, ppcsim.Options{Trace: tr, Algorithm: alg, Disks: 4})
		})
	}
}

// BenchmarkFig3SynthCscope1: the fundamental-differences figure.
func BenchmarkFig3SynthCscope1(b *testing.B) {
	for _, name := range []string{"synth", "cscope1"} {
		tr := benchTrace(b, name)
		for _, alg := range []ppcsim.Algorithm{ppcsim.FixedHorizon, ppcsim.Aggressive} {
			b.Run(name+"/"+string(alg)+"/1d", func(b *testing.B) {
				benchRun(b, ppcsim.Options{Trace: tr, Algorithm: alg, Disks: 1})
			})
		}
	}
}

// BenchmarkTable4Utilization: utilization measurement path (Table 4).
func BenchmarkTable4Utilization(b *testing.B) {
	tr := benchTrace(b, "postgres-select")
	benchRun(b, ppcsim.Options{Trace: tr, Algorithm: ppcsim.Aggressive, Disks: 8})
}

// BenchmarkFig4Ld: the ld crossover figure.
func BenchmarkFig4Ld(b *testing.B) {
	tr := benchTrace(b, "ld")
	for _, d := range []int{1, 4, 16} {
		b.Run(string(rune('0'+d/10))+string(rune('0'+d%10))+"d", func(b *testing.B) {
			benchRun(b, ppcsim.Options{Trace: tr, Algorithm: ppcsim.Aggressive, Disks: d})
		})
	}
}

// BenchmarkFig5Cscope3: reverse aggressive on the bursty-compute trace.
func BenchmarkFig5Cscope3(b *testing.B) {
	tr := benchTrace(b, "cscope3")
	b.Run("reverse-aggressive/1d", func(b *testing.B) {
		benchRun(b, ppcsim.Options{Trace: tr, Algorithm: ppcsim.ReverseAggressive, Disks: 1, FetchEstimate: 4, BatchSize: 80})
	})
	b.Run("aggressive/1d", func(b *testing.B) {
		benchRun(b, ppcsim.Options{Trace: tr, Algorithm: ppcsim.Aggressive, Disks: 1})
	})
}

// BenchmarkTable5CscanVsFcfs: scheduler comparison (Table 5).
func BenchmarkTable5CscanVsFcfs(b *testing.B) {
	tr := benchTrace(b, "postgres-select")
	b.Run("CSCAN", func(b *testing.B) {
		benchRun(b, ppcsim.Options{Trace: tr, Algorithm: ppcsim.Aggressive, Disks: 1})
	})
	b.Run("FCFS", func(b *testing.B) {
		benchRun(b, ppcsim.Options{Trace: tr, Algorithm: ppcsim.Aggressive, Disks: 1, Scheduler: ppcsim.FCFS})
	})
}

// BenchmarkFig6BatchSize: aggressive's batch-size sweep endpoints.
func BenchmarkFig6BatchSize(b *testing.B) {
	tr := benchTrace(b, "cscope2")
	for _, batch := range []int{4, 160, 1280} {
		b.Run(map[int]string{4: "batch4", 160: "batch160", 1280: "batch1280"}[batch], func(b *testing.B) {
			benchRun(b, ppcsim.Options{Trace: tr, Algorithm: ppcsim.Aggressive, Disks: 1, BatchSize: batch})
		})
	}
}

// BenchmarkFig7Horizon: fixed horizon's H sweep endpoints.
func BenchmarkFig7Horizon(b *testing.B) {
	tr := benchTrace(b, "cscope2")
	for _, h := range []int{16, 62, 2048} {
		b.Run(map[int]string{16: "H16", 62: "H62", 2048: "H2048"}[h], func(b *testing.B) {
			benchRun(b, ppcsim.Options{Trace: tr, Algorithm: ppcsim.FixedHorizon, Disks: 2, Horizon: h})
		})
	}
}

// BenchmarkTable7CacheSize: cache-size sensitivity (Table 7, appendix D).
func BenchmarkTable7CacheSize(b *testing.B) {
	tr := benchTrace(b, "glimpse")
	for _, k := range []int{640, 1920} {
		b.Run(map[int]string{640: "K640", 1920: "K1920"}[k], func(b *testing.B) {
			benchRun(b, ppcsim.Options{Trace: tr, Algorithm: ppcsim.FixedHorizon, Disks: 2, CacheBlocks: k})
		})
	}
}

// BenchmarkFig8Forestall: forestall on synth and xds.
func BenchmarkFig8Forestall(b *testing.B) {
	for _, name := range []string{"synth", "xds"} {
		tr := benchTrace(b, name)
		b.Run(name+"/1d", func(b *testing.B) {
			benchRun(b, ppcsim.Options{Trace: tr, Algorithm: ppcsim.Forestall, Disks: 1})
		})
	}
}

// BenchmarkFig9ForestallCscope2: forestall on cscope2.
func BenchmarkFig9ForestallCscope2(b *testing.B) {
	tr := benchTrace(b, "cscope2")
	benchRun(b, ppcsim.Options{Trace: tr, Algorithm: ppcsim.Forestall, Disks: 4})
}

// BenchmarkFig10ForestallGlimpse: forestall on glimpse.
func BenchmarkFig10ForestallGlimpse(b *testing.B) {
	tr := benchTrace(b, "glimpse")
	benchRun(b, ppcsim.Options{Trace: tr, Algorithm: ppcsim.Forestall, Disks: 4})
}

// BenchmarkTable8ForestallUtil: forestall's utilization path.
func BenchmarkTable8ForestallUtil(b *testing.B) {
	tr := benchTrace(b, "postgres-select")
	benchRun(b, ppcsim.Options{Trace: tr, Algorithm: ppcsim.Forestall, Disks: 8})
}

// BenchmarkAppendixABaseline: one baseline row per algorithm (ld, 2d).
func BenchmarkAppendixABaseline(b *testing.B) {
	tr := benchTrace(b, "ld")
	for _, alg := range []ppcsim.Algorithm{ppcsim.FixedHorizon, ppcsim.Aggressive, ppcsim.Forestall} {
		b.Run(string(alg), func(b *testing.B) {
			benchRun(b, ppcsim.Options{Trace: tr, Algorithm: alg, Disks: 2})
		})
	}
	b.Run("reverse-aggressive", func(b *testing.B) {
		benchRun(b, ppcsim.Options{Trace: tr, Algorithm: ppcsim.ReverseAggressive, Disks: 2, FetchEstimate: 8, BatchSize: 40})
	})
}

// BenchmarkAppendixBFCFS: the FCFS baseline.
func BenchmarkAppendixBFCFS(b *testing.B) {
	tr := benchTrace(b, "ld")
	benchRun(b, ppcsim.Options{Trace: tr, Algorithm: ppcsim.FixedHorizon, Disks: 2, Scheduler: ppcsim.FCFS})
}

// BenchmarkAppendixCDoubleCPU: double-speed-CPU xds (H=124).
func BenchmarkAppendixCDoubleCPU(b *testing.B) {
	tr := benchTrace(b, "xds").ScaleCompute(0.5)
	benchRun(b, ppcsim.Options{Trace: tr, Algorithm: ppcsim.FixedHorizon, Disks: 2, Horizon: 124})
}

// BenchmarkAppendixDCacheSize: the 640-block cache variant.
func BenchmarkAppendixDCacheSize(b *testing.B) {
	tr := benchTrace(b, "postgres-join")
	benchRun(b, ppcsim.Options{Trace: tr, Algorithm: ppcsim.Aggressive, Disks: 2, CacheBlocks: 640})
}

// BenchmarkAppendixEBatch: aggressive's batch sweep midpoint.
func BenchmarkAppendixEBatch(b *testing.B) {
	tr := benchTrace(b, "dinero")
	benchRun(b, ppcsim.Options{Trace: tr, Algorithm: ppcsim.Aggressive, Disks: 2, BatchSize: 16})
}

// BenchmarkAppendixFRevAggParams: reverse aggressive with fixed params,
// including the schedule-construction cost.
func BenchmarkAppendixFRevAggParams(b *testing.B) {
	tr := benchTrace(b, "cscope1")
	for _, f := range []float64{4, 64} {
		b.Run(map[float64]string{4: "F4", 64: "F64"}[f], func(b *testing.B) {
			benchRun(b, ppcsim.Options{Trace: tr, Algorithm: ppcsim.ReverseAggressive, Disks: 2, FetchEstimate: f, BatchSize: 40})
		})
	}
}

// BenchmarkAppendixGHorizon: the huge-horizon configuration.
func BenchmarkAppendixGHorizon(b *testing.B) {
	tr := benchTrace(b, "dinero")
	benchRun(b, ppcsim.Options{Trace: tr, Algorithm: ppcsim.FixedHorizon, Disks: 2, Horizon: 2048})
}

// BenchmarkAppendixHForestallFixed: forestall with a fixed estimate.
func BenchmarkAppendixHForestallFixed(b *testing.B) {
	tr := benchTrace(b, "cscope2")
	benchRun(b, ppcsim.Options{Trace: tr, Algorithm: ppcsim.Forestall, Disks: 2, ForestallFixedF: 30})
}

// --- Hot-path benchmarks ---
//
// One benchmark per (policy, disk count) on the full synthetic
// 100k-reference trace, reporting refs/sec alongside ns/op and allocs/op.
// CI's bench smoke runs them once per grid point; speed claims are
// measured with perfbench (see perfbench/README.md).

func benchTraceFull(b *testing.B, name string) *ppcsim.Trace {
	b.Helper()
	return tracetest.Bundled(b, name)
}

// The hot-path benchmark grid: every online policy at 1 to 16 disks.
var (
	hotPathAlgs  = []ppcsim.Algorithm{ppcsim.Demand, ppcsim.FixedHorizon, ppcsim.Aggressive, ppcsim.Forestall}
	hotPathDisks = []int{1, 2, 4, 8, 16}
)

// BenchmarkHotPath runs every hot-path grid point on the full synth trace.
func BenchmarkHotPath(b *testing.B) {
	tr := benchTraceFull(b, "synth")
	refs := float64(len(tr.Refs))
	for _, alg := range hotPathAlgs {
		for _, d := range hotPathDisks {
			b.Run(fmt.Sprintf("%s/%dd", alg, d), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := ppcsim.Run(ppcsim.Options{Trace: tr, Algorithm: alg, Disks: d}); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(refs*float64(b.N)/b.Elapsed().Seconds(), "refs/s")
			})
		}
	}
}

// --- Extension benchmarks (beyond the paper's artifacts) ---

// BenchmarkExtLRU times the hint-less LRU baseline.
func BenchmarkExtLRU(b *testing.B) {
	tr := benchTrace(b, "glimpse")
	benchRun(b, ppcsim.Options{Trace: tr, Algorithm: ppcsim.DemandLRU, Disks: 2})
}

// BenchmarkExtHints times a degraded-hints run (phantom-block path).
func BenchmarkExtHints(b *testing.B) {
	tr := benchTrace(b, "postgres-select")
	benchRun(b, ppcsim.Options{
		Trace: tr, Algorithm: ppcsim.Forestall, Disks: 2,
		Hints: &ppcsim.HintSpec{Fraction: 0.5, Accuracy: 0.9, Seed: 1},
	})
}

// BenchmarkExtWrites times the write-behind path.
func BenchmarkExtWrites(b *testing.B) {
	bld := ppcsim.NewTraceBuilder("bench-writes").Seed(3)
	data := bld.AddFile(400)
	logf := bld.AddFile(1024)
	for i := 0; i < 800; i++ {
		bld.Sequential(data, i%400, 1)
		if i%4 == 3 {
			bld.WriteSequential(logf, i%1024, 1)
		}
	}
	tr, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	benchRun(b, ppcsim.Options{Trace: tr, Algorithm: ppcsim.Aggressive, Disks: 2, CacheBlocks: 256})
}

// BenchmarkExtMulti times the multi-process simulator.
func BenchmarkExtMulti(b *testing.B) {
	mk := func(seed int64) *ppcsim.Trace {
		bld := ppcsim.NewTraceBuilder("mp").Seed(seed)
		f := bld.AddFile(500)
		bld.ComputeExp(1.5).Loop(f, 3)
		tr, err := bld.Build()
		if err != nil {
			b.Fatal(err)
		}
		return tr
	}
	var last ppcsim.MultiResult
	for i := 0; i < b.N; i++ {
		r, err := ppcsim.RunMulti(ppcsim.MultiConfig{
			Processes: []ppcsim.ProcessSpec{
				{Trace: mk(1), Algorithm: ppcsim.MultiForestall, Hinted: true},
				{Trace: mk(2)},
			},
			Disks:       2,
			CacheBlocks: 512,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.ElapsedSec, "sim-sec")
}

// BenchmarkTraceBuilder times workload construction itself.
func BenchmarkTraceBuilder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bld := ppcsim.NewTraceBuilder("bench").Seed(int64(i))
		f := bld.AddFile(2000)
		bld.ComputeExp(1).Loop(f, 5).Zipf(f, 2000, 1.3).Strided(f, 0, 17, 1000)
		if _, err := bld.Build(); err != nil {
			b.Fatal(err)
		}
	}
}
