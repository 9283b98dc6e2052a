package main

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"ppcsim"
)

// sweep expands, validates and runs sp, as main does.
func sweep(sp sweepSpec, parallel int, w io.Writer) error {
	jobs, err := sp.jobs()
	if err != nil {
		return err
	}
	return runSweep(sp, jobs, parallel, w)
}

// TestParallelSweepDeterministic: the CSV must be byte-identical no
// matter how many workers run the sweep.
func TestParallelSweepDeterministic(t *testing.T) {
	sp := sweepSpec{
		traces:   []string{"synth", "xds"},
		algs:     []ppcsim.Algorithm{ppcsim.Demand, ppcsim.Forestall, ppcsim.Aggressive},
		disks:    []int{1, 3},
		scheds:   []ppcsim.Discipline{ppcsim.CSCAN, ppcsim.FCFS},
		caches:   []int{0},
		batches:  []int{0, 16},
		horizons: []int{0},
		hintFrac: 1,
		hintAcc:  1,
	}
	var serial bytes.Buffer
	if err := sweep(sp, 1, &serial); err != nil {
		t.Fatal(err)
	}
	wantRows := len(sp.traces)*len(sp.algs)*len(sp.disks)*len(sp.scheds)*len(sp.caches)*len(sp.batches)*len(sp.horizons) + 1
	if got := strings.Count(serial.String(), "\n"); got != wantRows {
		t.Fatalf("serial sweep wrote %d rows, want %d", got, wantRows)
	}
	for _, parallel := range []int{2, 8} {
		var par bytes.Buffer
		if err := sweep(sp, parallel, &par); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(serial.Bytes(), par.Bytes()) {
			t.Errorf("-parallel %d output differs from -parallel 1", parallel)
		}
	}
}

func TestSweepSplitHelpers(t *testing.T) {
	if got := splitList("a, ,b,"); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("splitList: %v", got)
	}
	ints, err := splitInts("4,8")
	if err != nil || len(ints) != 2 || ints[1] != 8 {
		t.Errorf("splitInts: %v %v", ints, err)
	}
	if _, err := splitInts("4,?"); err == nil {
		t.Error("splitInts accepted a non-integer")
	}
}

// TestSweepStreamsLargeSpec: a -large grid expands under the spec's
// resolved name, streams every cell (no materialized trace), and
// renders the same CSV serial or parallel.
func TestSweepStreamsLargeSpec(t *testing.T) {
	large := ppcsim.LargeTraceSpec{Refs: 2000, Blocks: 256, Pattern: "zipf", Seed: 7}
	sp := sweepSpec{
		large:    &large,
		algs:     []ppcsim.Algorithm{ppcsim.Demand, ppcsim.Aggressive},
		disks:    []int{1},
		scheds:   []ppcsim.Discipline{ppcsim.CSCAN},
		caches:   []int{0},
		batches:  []int{0},
		horizons: []int{0},
		hintFrac: 1,
		hintAcc:  1,
		window:   64,
	}
	jobs, err := sp.jobs()
	if err != nil {
		t.Fatal(err)
	}
	name := large.ResolvedName()
	if len(jobs) != 2 {
		t.Fatalf("got %d jobs, want 2", len(jobs))
	}
	for _, j := range jobs {
		if j.traceName != name || j.opts.Trace != nil || j.opts.Source == nil {
			t.Errorf("large job: %+v, want name %q and a spec, no materialized trace", j, name)
		}
	}

	var buf bytes.Buffer
	if err := sweep(sp, 2, &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want header + 2 rows:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[1], name+",demand,1,CSCAN,") ||
		!strings.HasPrefix(lines[2], name+",aggressive,1,CSCAN,") {
		t.Errorf("rows:\n%s\n%s", lines[1], lines[2])
	}

	var again bytes.Buffer
	if err := sweep(sp, 0, &again); err != nil {
		t.Fatal(err)
	}
	if again.String() != buf.String() {
		t.Error("parallel and serial streamed sweeps rendered different CSV")
	}

	// An unknown bundled trace fails expansion rather than sweeping.
	sp.large = nil
	sp.traces = []string{"no-such-trace"}
	if err := sweep(sp, 1, &bytes.Buffer{}); err == nil {
		t.Error("unknown trace swept without error")
	}
}

// TestSweepReportsConfigErrors: a bad grid point surfaces the offending
// configuration instead of a bare error.
func TestSweepReportsConfigErrors(t *testing.T) {
	sp := sweepSpec{
		traces:   []string{"synth"},
		algs:     []ppcsim.Algorithm{ppcsim.Demand},
		disks:    []int{-1},
		scheds:   []ppcsim.Discipline{ppcsim.CSCAN},
		caches:   []int{0},
		batches:  []int{0},
		horizons: []int{0},
		hintFrac: 1,
		hintAcc:  1,
	}
	var buf bytes.Buffer
	err := sweep(sp, 4, &buf)
	if err == nil {
		t.Fatal("negative disk count should fail the sweep")
	}
	if !strings.Contains(err.Error(), "synth/demand/d=-1") {
		t.Errorf("error %q does not name the failing configuration", err)
	}
}

// TestSweepValidatesBeforeRunning: a -large sweep whose last algorithm
// cannot stream is rejected with a ConfigError naming that cell before
// any cell runs, so nothing is written, not even the CSV header.
func TestSweepValidatesBeforeRunning(t *testing.T) {
	large := ppcsim.LargeTraceSpec{Refs: 2000, Blocks: 256, Pattern: "zipf", Seed: 7}
	sp := sweepSpec{
		large:    &large,
		algs:     []ppcsim.Algorithm{ppcsim.Demand, ppcsim.Aggressive, ppcsim.ReverseAggressive},
		disks:    []int{1, 2},
		scheds:   []ppcsim.Discipline{ppcsim.CSCAN},
		caches:   []int{0},
		batches:  []int{0},
		horizons: []int{0},
		hintFrac: 1,
		hintAcc:  1,
		window:   64,
	}
	var buf bytes.Buffer
	err := sweep(sp, 2, &buf)
	var ce *ppcsim.ConfigError
	if !errors.As(err, &ce) || ce.Field != "Algorithm" {
		t.Fatalf("err = %v, want a ConfigError on Algorithm", err)
	}
	if want := large.ResolvedName() + "/reverse-aggressive/d=1"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name %s", err, want)
	}
	if buf.Len() != 0 {
		t.Errorf("rejected sweep wrote %q", buf.String())
	}
}
