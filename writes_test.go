package ppcsim_test

import (
	"bytes"
	"reflect"
	"testing"

	"ppcsim"
	"ppcsim/internal/layout"
	"ppcsim/internal/trace"
)

// The write-behind extension: the paper ignores writes because "write
// behind strategies can mask update latency"; these tests pin the
// extension that models exactly that — writes never stall the process but
// do compete with reads for disk time.

// rwTrace interleaves a sequential read loop with writes to a log file.
func rwTrace(reads, writesEvery int) *ppcsim.Trace {
	tr := &trace.Trace{
		Name: "read-write",
		Files: []layout.File{
			{First: 0, Blocks: 200},   // data read in a loop
			{First: 200, Blocks: 512}, // log, written sequentially
		},
		CacheBlocks: 128,
	}
	log := 0
	for i := 0; i < reads; i++ {
		tr.Refs = append(tr.Refs, trace.Ref{Block: layout.BlockID(i % 200), ComputeMs: 1})
		if writesEvery > 0 && i%writesEvery == writesEvery-1 {
			tr.Refs = append(tr.Refs, trace.Ref{
				Block:     layout.BlockID(200 + log%512),
				ComputeMs: 0.2,
				Write:     true,
			})
			log++
		}
	}
	return tr
}

func TestWritesNeverStallButCost(t *testing.T) {
	readOnly := rwTrace(2000, 0)
	withWrites := rwTrace(2000, 4)
	st := withWrites.Stats()
	if st.Writes != 500 || st.Reads != 2000 {
		t.Fatalf("stats %+v", st)
	}
	for _, alg := range []ppcsim.Algorithm{ppcsim.FixedHorizon, ppcsim.Aggressive, ppcsim.Forestall, ppcsim.Demand, ppcsim.ReverseAggressive} {
		ro, err := ppcsim.Run(ppcsim.Options{Trace: readOnly, Algorithm: alg, Disks: 1})
		if err != nil {
			t.Fatal(err)
		}
		rw, err := ppcsim.Run(ppcsim.Options{Trace: withWrites, Algorithm: alg, Disks: 1})
		if err != nil {
			t.Fatal(err)
		}
		if rw.WriteRequests != 500 {
			t.Errorf("%s: write requests = %d, want 500", alg, rw.WriteRequests)
		}
		if ro.WriteRequests != 0 {
			t.Errorf("%s: read-only run reported writes", alg)
		}
		// Write traffic consumes disk time, so the run cannot get faster.
		if rw.ElapsedSec < ro.ElapsedSec {
			t.Errorf("%s: writes made the run faster (%.3f < %.3f)", alg, rw.ElapsedSec, ro.ElapsedSec)
		}
		// Reads are still all served.
		if rw.CacheHits+rw.CacheMisses != 2000 {
			t.Errorf("%s: served %d reads, want 2000", alg, rw.CacheHits+rw.CacheMisses)
		}
	}
}

func TestWriteOnlyTraceCompletes(t *testing.T) {
	tr := &trace.Trace{
		Name:        "write-only",
		Files:       []layout.File{{First: 0, Blocks: 64}},
		CacheBlocks: 16,
	}
	for i := 0; i < 300; i++ {
		tr.Refs = append(tr.Refs, trace.Ref{Block: layout.BlockID(i % 64), ComputeMs: 0.5, Write: true})
	}
	r, err := ppcsim.Run(ppcsim.Options{Trace: tr, Algorithm: ppcsim.Forestall, Disks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.WriteRequests != 300 || r.Fetches != 0 {
		t.Errorf("writes=%d fetches=%d, want 300/0", r.WriteRequests, r.Fetches)
	}
	if r.StallTimeSec > 1e-9 {
		t.Errorf("write-only run stalled %.3fs", r.StallTimeSec)
	}
	// Elapsed is compute + driver overhead only: 300 compute periods of
	// 0.5 ms plus 299 driver overheads (the run ends at the last
	// reference, before its write's overhead would delay anything).
	want := 0.150 + 0.0005*299
	if diff := r.ElapsedSec - want; diff < -1e-9 || diff > 1e-9 {
		t.Errorf("elapsed %.6f, want %.6f", r.ElapsedSec, want)
	}
}

func TestWritesDoNotConfusePrefetchers(t *testing.T) {
	// The prefetchers must not try to "prefetch" blocks that are only
	// ever written: fetch counts must match the read-only working set.
	tr := rwTrace(1200, 3)
	r, err := ppcsim.Run(ppcsim.Options{Trace: tr, Algorithm: ppcsim.Aggressive, Disks: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Only the 200 data blocks are ever read; with a 128-block cache the
	// loop misses repeatedly but never touches the log blocks.
	if r.Fetches < 200 {
		t.Errorf("fetches = %d, want >= 200", r.Fetches)
	}
	for _, d := range r.PerDisk {
		if d.Fetches < 0 {
			t.Error("negative per-disk fetches")
		}
	}
}

func TestWriteSerializationRoundTrip(t *testing.T) {
	tr := rwTrace(50, 5)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Refs {
		if got.Refs[i].Write != tr.Refs[i].Write || got.Refs[i].Block != tr.Refs[i].Block {
			t.Fatalf("ref %d mismatch: %+v vs %+v", i, got.Refs[i], tr.Refs[i])
		}
	}
	half := tr.ScaleCompute(0.5)
	for i := range tr.Refs {
		if half.Refs[i].Write != tr.Refs[i].Write {
			t.Fatal("ScaleCompute dropped the write flag")
		}
	}
}

func TestWritesWithHints(t *testing.T) {
	tr := rwTrace(800, 4)
	r, err := ppcsim.Run(ppcsim.Options{
		Trace: tr, Algorithm: ppcsim.Forestall, Disks: 2,
		Hints: &ppcsim.HintSpec{Fraction: 0.6, Accuracy: 0.9, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.WriteRequests != 200 {
		t.Errorf("writes = %d, want 200", r.WriteRequests)
	}
	if r.CacheHits+r.CacheMisses != 800 {
		t.Errorf("reads served = %d, want 800", r.CacheHits+r.CacheMisses)
	}
}

// TestRunLeavesTraceUnchanged holds the engine to reading a materialized
// trace in place: every algorithm, with and without degraded hints, over
// a trace with writes, must leave the caller's references exactly as they
// were. Reverse aggressive is offline and takes only full hints.
func TestRunLeavesTraceUnchanged(t *testing.T) {
	tr := rwTrace(1500, 4)
	want := append([]trace.Ref(nil), tr.Refs...)
	for _, alg := range ppcsim.Algorithms {
		noisy := &ppcsim.HintSpec{Fraction: 0.8, Accuracy: 0.9, Seed: 3, Window: 100}
		if alg == ppcsim.ReverseAggressive {
			noisy = &ppcsim.HintSpec{Fraction: 1, Accuracy: 1, Seed: 3}
		}
		for _, hints := range []*ppcsim.HintSpec{nil, noisy} {
			if _, err := ppcsim.Run(ppcsim.Options{Trace: tr, Algorithm: alg, Disks: 2, Hints: hints}); err != nil {
				t.Fatalf("%s (hints %v): %v", alg, hints != nil, err)
			}
			if !reflect.DeepEqual(tr.Refs, want) {
				t.Fatalf("%s (hints %v): the run changed the caller's trace", alg, hints != nil)
			}
		}
	}
}
