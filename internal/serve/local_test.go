package serve

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"ppcsim"
	"ppcsim/internal/serve/tracestore"
)

// TestParseTraceSpec: the -large shorthand becomes a trace_spec, and a
// shorthand the generator would reject, zero blocks included, is a
// ConfigError on Trace rather than the wire's 65536-block default.
func TestParseTraceSpec(t *testing.T) {
	ts, err := ParseTraceSpec("1e4:512:zipf:7")
	if err != nil {
		t.Fatal(err)
	}
	if want := (TraceSpec{Refs: 10000, Blocks: 512, Pattern: "zipf", Seed: 7}); *ts != want {
		t.Errorf("got %+v, want %+v", *ts, want)
	}
	for _, bad := range []string{"zipf", "2000:0", "2000:1", "2000:64:ring"} {
		var ce *ppcsim.ConfigError
		if _, err := ParseTraceSpec(bad); !errors.As(err, &ce) || ce.Field != "Trace" {
			t.Errorf("%q: err %v, want a ConfigError on Trace", bad, err)
		}
	}
}

// TestTraceFile: a local file is named by its store hash, opens under
// that hash only, and a missing file is a ConfigError on Trace.
func TestTraceFile(t *testing.T) {
	blob := []byte("columnar bytes")
	path := filepath.Join(t.TempDir(), "t.col")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	tf, err := HashTraceFile(path)
	if err != nil || tf.Hash != tracestore.HashBytes(blob) || tf.Path != path {
		t.Fatalf("HashTraceFile = %+v, %v", tf, err)
	}
	rc, err := tf.OpenHash(tf.Hash)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(rc)
	rc.Close()
	if err != nil || string(got) != string(blob) {
		t.Errorf("OpenHash read %q, %v", got, err)
	}
	if _, err := tf.OpenHash(tracestore.HashBytes([]byte("other"))); err == nil {
		t.Error("OpenHash opened the file under another hash")
	}
	var ce *ppcsim.ConfigError
	if _, err := HashTraceFile(filepath.Join(t.TempDir(), "absent")); !errors.As(err, &ce) || ce.Field != "Trace" {
		t.Errorf("missing file: err %v, want a ConfigError on Trace", err)
	}
}
