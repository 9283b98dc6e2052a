package coord

import (
	"errors"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"ppcsim"
	"ppcsim/internal/serve"
)

// TestCellsExpansionOrder pins the grid nesting (algorithms-major, then
// disk counts, cache sizes, windows) that existing cell indexes and
// ppc-sweep's CSV row order depend on.
func TestCellsExpansionOrder(t *testing.T) {
	spec, err := ParseJobSpec([]byte(`{"trace":"synth","algorithms":["demand","aggressive"],"disk_counts":[1,2],"cache_sizes":[16,32]}`))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := spec.Cells(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 8 {
		t.Fatalf("expanded %d cells, want 8", len(cells))
	}
	i := 0
	for _, alg := range []string{"demand", "aggressive"} {
		for _, d := range []int{1, 2} {
			for _, cb := range []int{16, 32} {
				c := cells[i]
				if c.Index != i {
					t.Errorf("cell %d has Index %d", i, c.Index)
				}
				if c.Spec.Algorithm != alg || *c.Spec.Disks != d || *c.Spec.CacheBlocks != cb {
					t.Errorf("cell %d = (%s,%d,%d), want (%s,%d,%d)",
						i, c.Spec.Algorithm, *c.Spec.Disks, *c.Spec.CacheBlocks, alg, d, cb)
				}
				if c.Key != c.Spec.Key() {
					t.Errorf("cell %d Key does not match Spec.Key()", i)
				}
				i++
			}
		}
	}
}

// TestCellsExpansionOrderAllAxes pins the full nesting: traces,
// algorithms, disk counts, schedulers, cache sizes, windows, batch
// sizes, horizons, the last varying fastest.
func TestCellsExpansionOrderAllAxes(t *testing.T) {
	spec, err := ParseJobSpec([]byte(`{"traces":["ld","xds"],"algorithms":["demand","forestall"],"disk_counts":[1,2],` +
		`"schedulers":["cscan","fcfs"],"cache_sizes":[320,640],"windows":[64,128],"batch_sizes":[0,8],"horizons":[20,40]}`))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := spec.Cells(1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 256 {
		t.Fatalf("expanded %d cells, want 256", len(cells))
	}
	i := 0
	for _, tr := range []string{"ld", "xds"} {
		for _, alg := range []string{"demand", "forestall"} {
			for _, d := range []int{1, 2} {
				for _, sched := range []string{"cscan", "fcfs"} {
					for _, cb := range []int{320, 640} {
						for _, w := range []int{64, 128} {
							for _, b := range []int{0, 8} {
								for _, h := range []int{20, 40} {
									s := cells[i].Spec
									if s.Trace != tr || s.Algorithm != alg || *s.Disks != d || s.Scheduler != sched ||
										*s.CacheBlocks != cb || *s.Window != w || s.BatchSize != b || s.Horizon != h {
										t.Fatalf("cell %d = %+v, want (%s,%s,%d,%s,%d,%d,%d,%d)", i, s, tr, alg, d, sched, cb, w, b, h)
									}
									i++
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestCellsInheritBase: axis-free fields propagate from the embedded
// RunSpec into every cell.
func TestCellsInheritBase(t *testing.T) {
	spec, err := ParseJobSpec([]byte(`{"trace":"synth","algorithms":["demand"],"scheduler":"fcfs","batch_size":5,"hints":{"fraction":0.5,"accuracy":0.9},"cache_sizes":[16,32]}`))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := spec.Cells(100)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.Spec.Scheduler != "fcfs" || c.Spec.BatchSize != 5 || c.Spec.Hints == nil || c.Spec.Hints.Fraction != 0.5 {
			t.Errorf("cell %d lost base fields: %+v", c.Index, c.Spec)
		}
		if c.Spec.Disks != nil {
			t.Errorf("cell %d grew a Disks value from nowhere", c.Index)
		}
	}
	if *cells[0].Spec.CacheBlocks != 16 || *cells[1].Spec.CacheBlocks != 32 {
		t.Error("cache_sizes axis not applied in order")
	}
}

// TestCellsMaxCells: the expansion bound reports the would-be size.
func TestCellsMaxCells(t *testing.T) {
	spec, err := ParseJobSpec([]byte(`{"trace":"synth","algorithms":["demand","aggressive"],"cache_sizes":[8,16,32]}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spec.Cells(5); err == nil {
		t.Fatal("6-cell grid passed a 5-cell limit")
	} else {
		var ce *ppcsim.ConfigError
		if !errors.As(err, &ce) || ce.Field != "JobSpec" {
			t.Fatalf("overflow error = %v, want ConfigError on JobSpec", err)
		}
	}
}

// TestJobKeyOrderInsensitive: grids that expand to the same cell set
// share a job key regardless of how the axes were spelled or ordered;
// different cell sets do not.
func TestJobKeyOrderInsensitive(t *testing.T) {
	expand := func(body string) []Cell {
		t.Helper()
		spec, err := ParseJobSpec([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		cells, err := spec.Cells(100)
		if err != nil {
			t.Fatal(err)
		}
		return cells
	}
	a := JobKey(expand(`{"trace":"synth","algorithms":["demand","aggressive"],"cache_sizes":[16,32]}`))
	b := JobKey(expand(`{"trace":"synth","algorithms":["aggressive","demand"],"cache_sizes":[32,16]}`))
	if a != b {
		t.Error("reordered axes changed the job key")
	}
	// A scalar spelling of the same single-cell set also matches.
	c := JobKey(expand(`{"trace":"synth","algorithms":["demand"],"cache_sizes":[16]}`))
	d := JobKey(expand(`{"trace":"synth","algorithm":"demand","cache_blocks":16}`))
	if c != d {
		t.Error("scalar vs single-element-axis spelling changed the job key")
	}
	if a == c {
		t.Error("different grids share a job key")
	}
}

// TestParseJobSpecErrors: boundary failures are *ppcsim.ConfigError
// values naming the offending field (exercised over HTTP in
// TestJobBoundaries; this covers the direct API).
func TestParseJobSpecErrors(t *testing.T) {
	cases := []struct {
		body  string
		field string
	}{
		{`not json`, "JobSpec"},
		{`{"trace":"synth","algorithms":[]}`, "Algorithms"},
		{`{"trace":"synth","algorithms":["demand"],"cache_blocks":16,"cache_sizes":[16]}`, "CacheSizes"},
		{`{"trace":"synth","algorithms":["demand"],"cache_sizes":[16,0]}`, "CacheSizes"},
		{`{"trace":"synth","traces":["xds"],"algorithms":["demand"]}`, "Traces"},
		{`{"trace_spec":{"refs":100},"traces":["xds"],"algorithms":["demand"]}`, "Traces"},
		{`{"trace_hash":"` + strings.Repeat("ab", 32) + `","traces":["xds"],"algorithms":["demand"]}`, "Traces"},
		{`{"trace_text":"x","traces":["xds"],"algorithms":["demand"]}`, "Traces"},
		{`{"trace":"synth","algorithm":"demand","scheduler":"fcfs","schedulers":["cscan"]}`, "Schedulers"},
		{`{"trace":"synth","algorithm":"demand","batch_size":8,"batch_sizes":[4]}`, "BatchSizes"},
		{`{"trace":"synth","algorithm":"demand","horizon":20,"horizons":[40]}`, "Horizons"},
	}
	for _, tc := range cases {
		_, err := ParseJobSpec([]byte(tc.body))
		var ce *ppcsim.ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("ParseJobSpec(%s) err = %v, want ConfigError", tc.body, err)
			continue
		}
		if ce.Field != tc.field {
			t.Errorf("ParseJobSpec(%s) field = %q, want %q", tc.body, ce.Field, tc.field)
		}
	}
}

// TestJobKeyStable pins the job keys of specs of every shape: any
// change to the grid expansion, the canonical key derivation or the
// hash breaks stored-grid lookup and result caches for existing stores,
// and should have to change this test to do it.
func TestJobKeyStable(t *testing.T) {
	cases := []struct {
		body  string
		cells int
		key   string
	}{
		{`{"trace":"synth","algorithms":["demand","aggressive","forestall"],"disk_counts":[1,2,4],"cache_sizes":[640,1280]}`,
			18, "7187c53ab526e9daa6a8ad3e182b5bcdd6b60fef03b299bfcb12fb9e63cdf6a8"},
		{`{"trace_spec":{"refs":100000,"blocks":4096,"pattern":"zipf","seed":1},"algorithms":["demand","forestall"],"disk_counts":[1,4],"windows":[64,4096]}`,
			8, "a70d8dbf41ea9df739eae43976e6924bf673d8091d1b49778001c8dfb1164850"},
		{`{"trace_text":"ppctrace t false 4\nfile 4\nr 0 0.1\nr 1 0.1\n","algorithm":"demand","disk_counts":[1,2]}`,
			2, "c19eaa7168f44e58e105f431fca7f0e2d166c4eb72f083f9ae6882aad53b5b16"},
		{`{"trace":"xds","algorithms":["fixed-horizon","aggressive"],"scheduler":"fcfs","hints":{"fraction":0.5,"accuracy":0.9,"seed":3},"disk_counts":[2,3]}`,
			4, "37bd181cd8023c3af947a1314d9c142265611c82de580f198cf9a1136675ee81"},
		{`{"trace":"cscope3","algorithm":"forestall","disks":4,"cache_blocks":1280,"window":128,"batch_size":8,"horizon":40}`,
			1, "9da3957b6035449749d21a7d83655c8134a58417e82305ccb94cfe495097806b"},
	}
	for _, tc := range cases {
		spec, err := ParseJobSpec([]byte(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		cells, err := spec.Cells(1024)
		if err != nil {
			t.Fatal(err)
		}
		if len(cells) != tc.cells {
			t.Errorf("%s: %d cells, want %d", tc.body, len(cells), tc.cells)
		}
		if key := JobKey(cells); key != tc.key {
			t.Errorf("%s: job key %s, want %s", tc.body, key, tc.key)
		}
	}
}

// TestJobSpecChecksEveryCell: a grid whose first cell is valid but a
// later one breaks a run rule is rejected by the coordinator's parse
// path (ParseJobSpec, then the Cells expansion that checks every cell)
// with the field the single-run boundary would name.
func TestJobSpecChecksEveryCell(t *testing.T) {
	cases := []struct {
		body  string
		field string
	}{
		{`{"trace_spec":{"refs":1000,"blocks":64},"algorithms":["demand","reverse-aggressive"],"window":32}`, "Algorithm"},
		{`{"trace_spec":{"refs":1000,"blocks":64},"algorithm":"demand","windows":[32,5000]}`, "Hints"},
	}
	for _, tc := range cases {
		spec, err := ParseJobSpec([]byte(tc.body))
		if err == nil {
			_, err = spec.Cells(1024)
		}
		var ce *ppcsim.ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("%s: err = %v, want ConfigError", tc.body, err)
			continue
		}
		if ce.Field != tc.field {
			t.Errorf("%s: field %q, want %q", tc.body, ce.Field, tc.field)
		}
		if !strings.Contains(err.Error(), "cell 1") {
			t.Errorf("%s: error %q does not name cell 1", tc.body, err)
		}
	}
}

// TestOversizeGridRejectedCheaply: a small body whose axes multiply to a
// million cells is rejected on its cell count before any cell is built,
// so parsing and expanding it allocates almost nothing. Grids whose
// product wraps a 64-bit int (four 65,536-entry axes, or eight 256-entry
// ones) are rejected as cheaply: the count stops at the limit.
func TestOversizeGridRejectedCheaply(t *testing.T) {
	axis := func(n int, quote bool) string {
		vals := make([]string, n)
		for i := range vals {
			vals[i] = strconv.Itoa(i%1000 + 2)
			if quote {
				vals[i] = `"demand"`
			}
		}
		return "[" + strings.Join(vals, ",") + "]"
	}
	// reject parses body and expands it against a 1024-cell limit; with
	// parsed set, only the expansion is measured, since decoding a body
	// of several 65,536-entry axes itself allocates megabytes.
	reject := func(name string, body []byte, parsed bool) {
		t.Helper()
		var spec *JobSpec
		var err error
		if parsed {
			if spec, err = ParseJobSpec(body); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if !parsed {
			spec, err = ParseJobSpec(body)
		}
		if err == nil {
			_, err = spec.Cells(1024)
		}
		runtime.ReadMemStats(&after)
		var ce *ppcsim.ConfigError
		if !errors.As(err, &ce) || ce.Field != "JobSpec" {
			t.Fatalf("%s: err = %v, want a ConfigError on JobSpec", name, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("%s: rejecting a %d-byte body allocated %d bytes, want under 1 MB", name, len(body), alloc)
		}
	}
	reject("million", []byte(`{"trace_spec":{"refs":1000000,"blocks":64},"algorithm":"demand","disk_counts":`+axis(100, false)+
		`,"cache_sizes":`+axis(100, false)+`,"windows":`+axis(100, false)+`}`), false)
	big := axis(1<<16, false)
	reject("four 2^16 axes", []byte(`{"trace_spec":{"refs":1000000,"blocks":64},"algorithm":"demand","disk_counts":`+big+
		`,"cache_sizes":`+big+`,"windows":`+big+`,"batch_sizes":`+big+`}`), true)
	ints, strs := axis(256, false), axis(256, true)
	reject("eight 2^8 axes", []byte(`{"traces":`+strs+`,"algorithms":`+strs+`,"disk_counts":`+ints+`,"schedulers":`+strs+
		`,"cache_sizes":`+ints+`,"windows":`+ints+`,"batch_sizes":`+ints+`,"horizons":`+ints+`}`), true)
}

// TestNonFiniteTimeout: JSON cannot carry NaN or an infinity, but a
// JobSpec built in Go can, and its validation must reject both.
func TestNonFiniteTimeout(t *testing.T) {
	for _, x := range []float64{math.NaN(), math.Inf(1)} {
		spec := JobSpec{RunSpec: serve.RunSpec{Trace: "synth"}, Algorithms: []string{"demand"}, TimeoutMs: x}
		err := spec.Validate()
		var cfgErr *ppcsim.ConfigError
		if !errors.As(err, &cfgErr) || cfgErr.Field != "TimeoutMs" {
			t.Errorf("TimeoutMs %g: Validate() = %v, want a *ConfigError on TimeoutMs", x, err)
		}
	}
}
