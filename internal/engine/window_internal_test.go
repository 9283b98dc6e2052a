package engine

import (
	"testing"

	"ppcsim/internal/layout"
	"ppcsim/internal/trace"
)

// mkLongTrace builds an n-reference cycling trace over nBlocks blocks.
func mkLongTrace(nBlocks, n int, computeMs float64) *trace.Trace {
	tr := mkTrace(nBlocks, computeMs)
	for i := 0; i < n; i++ {
		tr.Refs = append(tr.Refs, trace.Ref{Block: layout.BlockID(i % nBlocks), ComputeMs: computeMs})
	}
	return tr
}

// TestHintNoiseIgnoresWindow is the regression pin for the corruption
// draw: which positions are undisclosed or corrupted, and what wrong
// block a corrupted hint names, is a function of the seed and the trace
// position alone. Two specs differing only in Window must produce the
// same disclosed stream position for position — the lookahead horizon
// changes when a hint becomes visible, never what it says.
func TestHintNoiseIgnoresWindow(t *testing.T) {
	const nBlocks = 16
	refs := make([]layout.BlockID, 500)
	for i := range refs {
		refs[i] = layout.BlockID((i * 7) % nBlocks)
	}
	isWrite := make([]bool, len(refs))
	for i := range isWrite {
		isWrite[i] = i%11 == 0
	}
	phantom := layout.BlockID(nBlocks)
	disclose := func(window int) []layout.BlockID {
		disclosed := make([]layout.BlockID, len(refs))
		nz := newHintNoiser(&HintSpec{Fraction: 0.6, Accuracy: 0.5, Seed: 41, Window: window}, phantom, nBlocks)
		for i, b := range refs {
			disclosed[i] = phantom
			if !isWrite[i] {
				disclosed[i] = nz.draw(b)
			}
		}
		return disclosed
	}
	base := disclose(0)
	for _, w := range []int{WindowNone, 1, 8, len(refs) / 2, len(refs), 10 * len(refs)} {
		got := disclose(w)
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("window %d re-rolled the noise at position %d: %d vs %d", w, i, got[i], base[i])
			}
		}
	}
}

// TestHintNoiseEndToEndIgnoresWindow re-checks the same property through
// Run: the disclosed stream a policy sees is unchanged across windows.
func TestHintNoiseEndToEndIgnoresWindow(t *testing.T) {
	tr := mkLongTrace(8, 200, 1)
	tr.CacheBlocks = 4
	disclose := func(window int) []layout.BlockID {
		spy := &disclosedSpy{}
		if _, err := Run(Config{
			Trace:  tr,
			Policy: spy,
			Disks:  1,
			Hints:  &HintSpec{Fraction: 0.7, Accuracy: 0.6, Seed: 5, Window: window},
		}); err != nil {
			t.Fatal(err)
		}
		return spy.refs
	}
	base := disclose(0)
	for _, w := range []int{WindowNone, 3, 50} {
		got := disclose(w)
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("window %d changed the disclosed stream at position %d", w, i)
			}
		}
	}
}

// windowSpy checks the State's window accessors against the engine's
// cursor on every poll.
type windowSpy struct {
	demandPolicy
	window   int
	bad      int
	polls    int
	windowed bool
}

func (p *windowSpy) Attach(s *State) { p.s = s; p.windowed = s.Windowed() }
func (p *windowSpy) Name() string    { return "window-spy" }
func (p *windowSpy) Poll() {
	p.polls++
	limit := p.s.WindowLimit(p.s.Len())
	want := p.s.Oracle.Cursor() + p.window
	if p.window == 0 || want > p.s.Len() {
		want = p.s.Len()
	}
	if p.window == WindowNone {
		want = p.s.Oracle.Cursor()
	}
	if limit != want {
		p.bad++
	}
}

// TestWindowLimitTracksCursor: WindowLimit clamps scan limits to
// cursor+W for positive windows, to the cursor itself for WindowNone,
// and is the identity for unlimited runs — including runs whose window
// covers the whole trace, which the engine normalizes to unlimited.
func TestWindowLimitTracksCursor(t *testing.T) {
	tr := mkLongTrace(8, 120, 1)
	tr.CacheBlocks = 4
	for _, w := range []int{WindowNone, 0, 5, 30, 120, 500} {
		effective := w
		if w >= len(tr.Refs) {
			effective = 0 // normalized to the unlimited fast path
		}
		spy := &windowSpy{window: effective}
		if _, err := Run(Config{
			Trace:  tr,
			Policy: spy,
			Disks:  1,
			Hints:  &HintSpec{Fraction: 1, Accuracy: 1, Window: w},
		}); err != nil {
			t.Fatal(err)
		}
		if spy.polls == 0 {
			t.Fatalf("W=%d: policy never polled", w)
		}
		if spy.bad != 0 {
			t.Errorf("W=%d: WindowLimit disagreed with cursor+W on %d of %d polls", w, spy.bad, spy.polls)
		}
		if wantWindowed := effective != 0; spy.windowed != wantWindowed {
			t.Errorf("W=%d: Windowed() = %v, want %v", w, spy.windowed, wantWindowed)
		}
	}
}
