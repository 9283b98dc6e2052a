package report

import (
	"strings"
	"testing"

	"ppcsim/internal/engine"
)

func TestTableRender(t *testing.T) {
	tb := &Table{
		Title:   "Demo",
		Columns: []string{"name", "value"},
		Notes:   []string{"a note"},
	}
	tb.AddRow("alpha", "1")
	tb.AddRow("beta-long", "22")
	out := tb.String()
	for _, want := range []string{"Demo", "====", "name", "alpha", "beta-long", "22", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Header columns must be aligned: value column right-aligned.
	if !strings.HasSuffix(lines[2], "value") {
		t.Errorf("header misaligned: %q", lines[2])
	}
}

func TestTableNoTitle(t *testing.T) {
	tb := &Table{Columns: []string{"x"}}
	tb.AddRow("1")
	if strings.Contains(tb.String(), "=") {
		t.Error("untitled table should have no underline")
	}
}

func TestFormatHelpers(t *testing.T) {
	if F(1.5) != "1.5" {
		t.Errorf("F(1.5) = %q", F(1.5))
	}
	if F(2.0) != "2" {
		t.Errorf("F(2.0) = %q", F(2.0))
	}
	if F(0.1234) != "0.123" {
		t.Errorf("F(0.1234) = %q", F(0.1234))
	}
	if F2(1.005) == "" || I(42) != "42" {
		t.Error("helper output wrong")
	}
	if Pct(12.34) != "12.3%" {
		t.Errorf("Pct = %q", Pct(12.34))
	}
}

func TestFigureRender(t *testing.T) {
	f := &Figure{
		Title:    "Breakdown",
		SegNames: []string{"cpu", "stall"},
		Unit:     "s",
		Width:    20,
	}
	f.Add("one", 1.0, 1.0)
	f.Add("two", 2.0, 0.0)
	out := f.String()
	for _, want := range []string{"Breakdown", "legend: # cpu, + stall", "one", "two", "2s"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// The largest bar should reach the full width.
	if !strings.Contains(out, strings.Repeat("#", 20)) {
		t.Errorf("max bar not full width:\n%s", out)
	}
}

func TestFigureZeroTotals(t *testing.T) {
	f := &Figure{SegNames: []string{"a"}}
	f.Add("empty", 0)
	if out := f.String(); !strings.Contains(out, "empty") {
		t.Errorf("zero-value figure broke: %s", out)
	}
}

func TestFigureSVG(t *testing.T) {
	f := &Figure{
		Title:    "SVG <Demo> & friends",
		SegNames: []string{"cpu", "stall"},
		Unit:     "s",
	}
	f.Add("a", 1.5, 0.5)
	f.Add("b", 0.0, 2.0)
	var b strings.Builder
	if err := f.RenderSVG(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"<svg", "</svg>", "SVG &lt;Demo&gt; &amp; friends", "cpu", "stall", "2s"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in SVG output", want)
		}
	}
	if strings.Contains(out, "<Demo>") {
		t.Error("title not escaped")
	}
}

func TestXMLEscape(t *testing.T) {
	if got := xmlEscape(`a<b>&"c'`); got != "a&lt;b&gt;&amp;&quot;c&apos;" {
		t.Errorf("xmlEscape = %q", got)
	}
}

// TestSweepRowMatchesHeader pins the sweep CSV dialect: one cell per
// header column, configuration columns first, results at their fixed
// precisions.
func TestSweepRowMatchesHeader(t *testing.T) {
	run := SweepRun{
		Trace: "xds", Algorithm: "forestall", Scheduler: "cscan",
		Disks: 4, CacheBlocks: 0, Batch: 16, Horizon: 62,
		HintFraction: 0.7, HintAccuracy: 1, Window: 1000,
	}
	res := engine.Result{ElapsedSec: 1.23456, Fetches: 42, AvgUtilization: 0.5}
	row, head := SweepRow(run, res), SweepHeader()
	if len(row) != len(head) {
		t.Fatalf("row has %d cells, header %d", len(row), len(head))
	}
	want := "xds,forestall,4,cscan,0,16,62,0.7,1,1000,1.2346,0.0000,0.0000,0.0000,42,0.000,0.000,0.500"
	if got := strings.Join(row, ","); got != want {
		t.Errorf("row = %s\nwant  %s", got, want)
	}
}
