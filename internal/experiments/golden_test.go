package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"ppcsim/internal/trace/tracetest"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("output drifted from %s.\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// goldenLookahead runs the lookahead sweep on a small deterministic loop
// trace, small enough that the golden run finishes in well under a
// second. The cache is halved so the windowed LRU-fallback eviction path
// is exercised, not just the full-residency fast path.
func goldenLookahead(t *testing.T, svgDir string) string {
	t.Helper()
	tr := tracetest.Loop("golden-loop", 32, 400, 2.0)
	tr.CacheBlocks = 16
	var buf bytes.Buffer
	o := &Options{Out: &buf, SVGDir: svgDir}
	if err := lookaheadSweep(o, "lookahead-golden", tr, 2, []int{4, 16, 0}); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestGoldenLookaheadTable pins the exact bytes of the lookahead sweep's
// table and text figure: the experiment output is diffed across runs to
// verify determinism, so formatting or result drift is a regression.
func TestGoldenLookaheadTable(t *testing.T) {
	checkGolden(t, "golden_lookahead.txt", goldenLookahead(t, ""))
}

// TestGoldenLookaheadSVG pins the sweep's SVG figure export.
func TestGoldenLookaheadSVG(t *testing.T) {
	dir := t.TempDir()
	goldenLookahead(t, dir)
	svg, err := os.ReadFile(filepath.Join(dir, "lookahead-golden.svg"))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_lookahead.svg", string(svg))
}

// TestGoldenLookaheadStable renders the sweep twice; experiments must be
// pure functions of their inputs.
func TestGoldenLookaheadStable(t *testing.T) {
	if goldenLookahead(t, "") != goldenLookahead(t, "") {
		t.Fatal("two renders of the lookahead sweep differ")
	}
}

// TestGoldenAllQuick pins the quick rendering of every experiment in the
// registry (all paper tables and figures plus the extensions), so a
// refactor that moves any reproduced number fails here rather than only
// in the full experiments_output.txt diff.
func TestGoldenAllQuick(t *testing.T) {
	var buf bytes.Buffer
	if err := RunAll(&Options{Out: &buf, Quick: true}); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_all_quick.txt", buf.String())
}
