package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ppcsim"
)

// TestBoundaryExitCodes is the CLI half of the boundary-validation
// table: configuration mistakes exit 2 with a ConfigError-derived
// message on stderr, never a panic and never exit 1's runtime-failure
// meaning.
func TestBoundaryExitCodes(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		code   int
		stderr string // required substring
	}{
		{"default run", []string{"-trace", "synth", "-alg", "demand"}, 0, ""},
		{"zero disks", []string{"-disks", "0"}, 2, "Disks"},
		{"negative disks", []string{"-disks", "-3"}, 2, "Disks"},
		{"zero cache", []string{"-cache", "0"}, 2, "CacheBlocks"},
		{"negative cache", []string{"-cache", "-8"}, 2, "CacheBlocks"},
		{"one-block cache", []string{"-cache", "1"}, 2, "CacheBlocks"},
		{"unknown algorithm", []string{"-alg", "tip2"}, 2, "Algorithm"},
		{"unknown scheduler", []string{"-sched", "sstf"}, 2, "Scheduler"},
		{"unknown trace", []string{"-trace", "bogus"}, 2, "Trace"},
		{"negative batch", []string{"-alg", "aggressive", "-batch", "-1"}, 2, "BatchSize"},
		{"negative horizon", []string{"-alg", "fixed-horizon", "-horizon", "-1"}, 2, "Horizon"},
		{"zero window", []string{"-alg", "fixed-horizon", "-window", "0"}, 2, "Window"},
		{"negative window", []string{"-alg", "fixed-horizon", "-window", "-4"}, 2, "Window"},
		// -window -1 once meant "no lookahead"; as on the wire, a window
		// must be positive. The library keeps ppcsim.WindowNone.
		{"window -1", []string{"-alg", "demand", "-window", "-1"}, 2, "Window: must be positive"},
		// On the wire cpu_scale 0 means unset, so an explicit 0 is an error
		// here rather than a run with no compute.
		{"zero cpu-scale", []string{"-cpu-scale", "0"}, 2, "CPUScale"},
		{"NaN cpu-scale", []string{"-cpu-scale", "NaN"}, 2, "CPUScale"},
		{"infinite cpu-scale", []string{"-cpu-scale", "Inf"}, 2, "CPUScale"},
		// -stream is gone: a source streams by its kind, as on the wire.
		{"stream flag", []string{"-alg", "demand", "-window", "16", "-stream"}, 2, "-stream"},
		// An empty -sched is the wire's absent scheduler: CSCAN.
		{"empty scheduler", []string{"-trace", "ld", "-alg", "demand", "-sched", ""}, 0, ""},
		{"bad hint fraction", []string{"-alg", "fixed-horizon", "-hint-fraction", "1.5"}, 2, "hint fraction"},
		{"NaN hint fraction", []string{"-alg", "fixed-horizon", "-hint-fraction", "NaN"}, 2, "hint fraction"},
		{"NaN fetch estimate", []string{"-alg", "reverse-aggressive", "-f", "NaN"}, 2, "FetchEstimate"},
		{"NaN forestall F", []string{"-alg", "forestall", "-forestall-f", "NaN"}, 2, "ForestallFixedF"},
		{"NaN driver overhead", []string{"-driver-ms", "NaN"}, 2, "DriverOverheadMs"},
		{"infinite driver overhead", []string{"-driver-ms", "Inf"}, 2, "DriverOverheadMs"},
		{"windowed reverse-aggressive", []string{"-alg", "reverse-aggressive", "-window", "10"}, 2, "Hints"},
		{"unparseable flag", []string{"-disks", "many"}, 2, ""},
		{"unknown flag", []string{"-frobnicate"}, 2, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			args := c.args
			if c.name != "unknown trace" && c.name != "default run" {
				// Keep failure cases fast: a tiny truncated run never
				// happens anyway (they must fail before simulating), but a
				// typo here shouldn't cost a full-trace simulation.
				args = append([]string{"-trace", "synth"}, args...)
			}
			var stdout, stderr bytes.Buffer
			code := run(args, &stdout, &stderr)
			if code != c.code {
				t.Fatalf("exit %d, want %d\nstderr: %s", code, c.code, stderr.String())
			}
			if c.stderr != "" && !strings.Contains(stderr.String(), c.stderr) {
				t.Errorf("stderr %q does not name field %q", stderr.String(), c.stderr)
			}
			if c.code != 0 && stdout.Len() > 0 {
				t.Errorf("failed run wrote to stdout: %s", stdout.String())
			}
		})
	}
}

// TestRunWindowedSucceeds: a positive -window is accepted and the run
// completes; the flag alone implies fully-accurate hints.
func TestRunWindowedSucceeds(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-trace", "ld", "-alg", "fixed-horizon", "-window", "64"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "elapsed time (sec):") {
		t.Errorf("output missing metrics:\n%s", stdout.String())
	}
}

// TestRunStreaming covers the streamed sources: a -trace-file run must
// reproduce the bundled trace's materialized metrics exactly (only the
// wall-clock refs/sec line may differ), -large must stream a synthetic
// trace, and the streaming-specific misconfigurations must exit 2.
func TestRunStreaming(t *testing.T) {
	path := columnarFile(t, "ld")
	matchesMaterialized(t, "ld", path, "-alg", "aggressive", "-disks", "2", "-window", "128")

	var out, stderr bytes.Buffer
	if code := run([]string{"-large", "20000:512:zipf:1", "-window", "100", "-alg", "forestall", "-disks", "2"}, &out, &stderr); code != 0 {
		t.Fatalf("-large exit %d\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(out.String(), "refs/sec") {
		t.Errorf("-large output missing refs/sec:\n%s", out.String())
	}

	for _, c := range []struct {
		name   string
		args   []string
		stderr string
	}{
		// -trace-file always streams, as trace_hash does on the wire.
		{"trace-file without window", []string{"-trace-file", path, "-alg", "demand"}, "Hints"},
		{"trace-file reverse-aggressive", []string{"-trace-file", path, "-alg", "reverse-aggressive", "-window", "16"}, "Algorithm"},
		{"large without window", []string{"-large", "1000:64", "-alg", "demand"}, "Hints"},
		{"bad large spec", []string{"-large", "zipf", "-window", "16"}, "Trace"},
		{"large plus trace", []string{"-trace", "ld", "-large", "1000:64", "-window", "16"}, "Trace"},
		{"large plus trace-file", []string{"-large", "1000:64", "-trace-file", "x.col", "-window", "16"}, "Trace"},
		{"streaming reverse-aggressive", []string{"-large", "1000:64", "-alg", "reverse-aggressive", "-window", "16"}, "Algorithm"},
		{"missing trace-file", []string{"-trace-file", "/nonexistent.col", "-window", "16"}, "Trace"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2\nstderr: %s", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), c.stderr) {
				t.Errorf("stderr %q does not name %q", stderr.String(), c.stderr)
			}
		})
	}
}

// TestRejectedRunKeepsOutputs: an invocation rejected for its options
// exits 2 before opening -events or -series, so files already at those
// paths keep their bytes.
func TestRejectedRunKeepsOutputs(t *testing.T) {
	dir := t.TempDir()
	events := filepath.Join(dir, "ev.json")
	series := filepath.Join(dir, "s.csv")
	want := []byte("earlier output\n")
	for _, p := range []string{events, series} {
		if err := os.WriteFile(p, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var stdout, stderr bytes.Buffer
	args := []string{"-large", "1000:64", "-window", "16", "-alg", "reverse-aggressive", "-events", events, "-series", series}
	if code := run(args, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "Algorithm") {
		t.Errorf("stderr %q does not name Algorithm", stderr.String())
	}
	for _, p := range []string{events, series} {
		got, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s changed to %q", filepath.Base(p), got)
		}
	}
}

// TestRunTraceFile streams a columnar copy of a bundled trace; its
// metrics must match the bundled trace's materialized run exactly.
func TestRunTraceFile(t *testing.T) {
	matchesMaterialized(t, "ld", columnarFile(t, "ld"), "-alg", "forestall", "-disks", "2", "-window", "64")
}

// columnarFile writes the bundled trace name to a columnar file and
// returns its path.
func columnarFile(t *testing.T, name string) string {
	t.Helper()
	tr, err := ppcsim.NewTrace(name)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name+".col")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ppcsim.WriteColumnarTrace(f, tr.Source()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// matchesMaterialized runs -trace name (materialized) and -trace-file
// path (streamed) with the same flags and requires the same metrics,
// apart from the wall-clock refs/sec line.
func matchesMaterialized(t *testing.T, name, path string, flags ...string) {
	t.Helper()
	strip := func(out string) string {
		var kept []string
		for _, line := range strings.Split(out, "\n") {
			if !strings.Contains(line, "refs/sec") {
				kept = append(kept, line)
			}
		}
		return strings.Join(kept, "\n")
	}
	var mat, str, stderr bytes.Buffer
	if code := run(append([]string{"-trace", name}, flags...), &mat, &stderr); code != 0 {
		t.Fatalf("materialized exit %d\nstderr: %s", code, stderr.String())
	}
	if code := run(append([]string{"-trace-file", path}, flags...), &str, &stderr); code != 0 {
		t.Fatalf("streamed exit %d\nstderr: %s", code, stderr.String())
	}
	if strip(mat.String()) != strip(str.String()) {
		t.Errorf("streamed metrics differ from materialized:\n--- materialized\n%s\n--- streamed\n%s", mat.String(), str.String())
	}
}

// TestRunPrintsMetrics sanity-checks the success path's report shape.
func TestRunPrintsMetrics(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-trace", "ld", "-alg", "forestall", "-disks", "2"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"fetches:", "elapsed time (sec):", "stall time (sec):", "avg disk util:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
