package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"ppcsim"
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
// in the full experiments_output.txt diff. The same run, one Options
// throughout as in ppc-experiments -run all, also pins one SHA-256 per
// artifact over the full-precision Results it asked for
// (artifact_digests.json), so a move below the printed precision fails
// too. table3 runs no simulation and ext-multi runs RunMulti rather than
// the runner, so neither has a digest.
func TestGoldenAllQuick(t *testing.T) {
	var buf bytes.Buffer
	o := &Options{Out: &buf, Quick: true}
	digests := map[string]string{}
	for _, e := range Registry() {
		var seen []ppcsim.Result
		o.seen = &seen
		if err := RunAll(o, []Experiment{e}); err != nil {
			t.Fatal(err)
		}
		if len(seen) > 0 {
			digests[e.ID] = resultsDigest(t, seen)
		}
	}
	t.Run("text", func(t *testing.T) { checkGolden(t, "golden_all_quick.txt", buf.String()) })
	t.Run("digests", func(t *testing.T) {
		b, err := json.MarshalIndent(digests, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "artifact_digests.json", string(b)+"\n")
	})
}

// resultsDigest hashes the sorted JSON encodings of rs, one per line, so
// neither cell order nor run order matters. encoding/json writes each
// float as the shortest decimal that parses back to the same bits, so
// the encoding is full precision.
func resultsDigest(t *testing.T, rs []ppcsim.Result) string {
	encs := make([]string, len(rs))
	for i, r := range rs {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		encs[i] = string(b)
	}
	sort.Strings(encs)
	h := sha256.New()
	for _, e := range encs {
		io.WriteString(h, e+"\n")
	}
	return hex.EncodeToString(h.Sum(nil))
}
