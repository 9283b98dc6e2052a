package future

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ppcsim/internal/layout"
)

func seq(ids ...int) []layout.BlockID {
	out := make([]layout.BlockID, len(ids))
	for i, v := range ids {
		out[i] = layout.BlockID(v)
	}
	return out
}

func TestNextUseBasic(t *testing.T) {
	o := New(seq(0, 1, 0, 2, 1, 0), 3)
	if got := o.NextUse(0); got != 0 {
		t.Errorf("NextUse(0) = %d, want 0", got)
	}
	if got := o.NextUse(2); got != 3 {
		t.Errorf("NextUse(2) = %d, want 3", got)
	}
	o.Advance(1)
	if got := o.NextUse(0); got != 2 {
		t.Errorf("after advance, NextUse(0) = %d, want 2", got)
	}
	o.Advance(4)
	if got := o.NextUse(2); got != Never {
		t.Errorf("NextUse(2) = %d, want Never", got)
	}
	if got := o.NextUse(1); got != 4 {
		t.Errorf("NextUse(1) = %d, want 4", got)
	}
	o.Advance(6)
	for b := 0; b < 3; b++ {
		if got := o.NextUse(layout.BlockID(b)); got != Never {
			t.Errorf("at end, NextUse(%d) = %d, want Never", b, got)
		}
	}
}

func TestAdvanceBackwardsPanics(t *testing.T) {
	o := New(seq(0, 1), 2)
	o.Advance(2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on backwards advance")
		}
	}()
	o.Advance(1)
}

// TestNextUseAfter: from every unconsumed position u, the step to the
// next use of u's block matches a scan of the sequence past u, at every
// cursor.
func TestNextUseAfter(t *testing.T) {
	refs := seq(0, 1, 0, 1, 0, 2, 1)
	o := New(refs, 3)
	for c := 0; c <= len(refs); c++ {
		o.Advance(c)
		for u := c; u < len(refs); u++ {
			if got, want := o.NextUseAfter(u), naiveNextUse(refs, u+1, refs[u]); got != want {
				t.Errorf("cursor %d: NextUseAfter(%d) = %d, want %d", c, u, got, want)
			}
		}
	}
}

// naiveNextUse is the O(n) specification NextUse must match.
func naiveNextUse(refs []layout.BlockID, cursor int, b layout.BlockID) int {
	for p := cursor; p < len(refs); p++ {
		if refs[p] == b {
			return p
		}
	}
	return Never
}

// TestNextUseMatchesNaive cross-checks the oracle against a quadratic
// scan over random sequences and random advance patterns.
func TestNextUseMatchesNaive(t *testing.T) {
	f := func(raw []uint8, seed int64) bool {
		if len(raw) == 0 {
			return true
		}
		const nBlocks = 8
		refs := make([]layout.BlockID, len(raw))
		for i, v := range raw {
			refs[i] = layout.BlockID(v % nBlocks)
		}
		o := New(refs, nBlocks)
		rng := rand.New(rand.NewSource(seed))
		cursor := 0
		for cursor < len(refs) {
			for b := 0; b < nBlocks; b++ {
				want := naiveNextUse(refs, cursor, layout.BlockID(b))
				if got := o.NextUse(layout.BlockID(b)); got != want {
					t.Logf("cursor=%d block=%d got=%d want=%d", cursor, b, got, want)
					return false
				}
			}
			// NextUseAfter from an arbitrary unconsumed position.
			pos := cursor + rng.Intn(len(refs)-cursor)
			if got, want := o.NextUseAfter(pos), naiveNextUse(refs, pos+1, refs[pos]); got != want {
				t.Logf("after: cursor=%d pos=%d got=%d want=%d", cursor, pos, got, want)
				return false
			}
			cursor += 1 + rng.Intn(3)
			if cursor > len(refs) {
				cursor = len(refs)
			}
			o.Advance(cursor)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestOracleAccessors(t *testing.T) {
	refs := seq(3, 1, 2)
	o := New(refs, 4)
	if o.Cursor() != 0 {
		t.Errorf("Cursor = %d", o.Cursor())
	}
	o.Advance(2)
	if o.Cursor() != 2 {
		t.Errorf("Cursor = %d after Advance(2)", o.Cursor())
	}
	if n, mask := o.Slots(); n != 3 || mask != -1 || o.At(0) != 3 || o.At(2) != 2 {
		t.Errorf("materialized Slots = (%d, %d), At(0), At(2) = %d, %d; want (3, -1), 3, 2", n, mask, o.At(0), o.At(2))
	}
	str := NewStreaming(4, 4)
	for _, b := range seq(3, 1, 2, 0, 1) {
		str.Append(b)
		str.Advance(str.Cursor() + 1)
	}
	if n, mask := str.Slots(); n != 4 || mask != 3 || str.At(4) != 1 || str.At(3) != 0 {
		t.Errorf("streaming Slots = (%d, %d), At(4), At(3) = %d, %d; want (4, 3), 1, 0", n, mask, str.At(4), str.At(3))
	}
}

// TestNextUseWithin: the windowed query reports a next use only when it
// falls inside [cursor, cursor+window), and Never otherwise — including
// a zero window, which can see nothing at all.
func TestNextUseWithin(t *testing.T) {
	o := New(seq(0, 1, 0, 2, 1, 0), 3)
	if got := o.NextUseWithin(0, 1); got != 0 {
		t.Errorf("NextUseWithin(0, 1) = %d, want 0", got)
	}
	if got := o.NextUseWithin(2, 3); got != Never {
		t.Errorf("NextUseWithin(2, 3) = %d, want Never: use at 3 is outside [0,3)", got)
	}
	if got := o.NextUseWithin(2, 4); got != 3 {
		t.Errorf("NextUseWithin(2, 4) = %d, want 3", got)
	}
	if got := o.NextUseWithin(1, 0); got != Never {
		t.Errorf("NextUseWithin(1, 0) = %d, want Never: zero window sees nothing", got)
	}
	o.Advance(1)
	if got := o.NextUseWithin(0, 1); got != Never {
		t.Errorf("after advance, NextUseWithin(0, 1) = %d, want Never: use at 2 is outside [1,2)", got)
	}
	if got := o.NextUseWithin(0, 2); got != 2 {
		t.Errorf("after advance, NextUseWithin(0, 2) = %d, want 2", got)
	}
	o.Advance(6)
	for b := 0; b < 3; b++ {
		if got := o.NextUseWithin(seq(b)[0], 1000); got != Never {
			t.Errorf("at end, NextUseWithin(%d, 1000) = %d, want Never", b, got)
		}
	}
}
