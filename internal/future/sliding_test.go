package future

import (
	"math/rand"
	"testing"

	"ppcsim/internal/layout"
)

// TestStreamingOracleMatchesMaterialized drives a streaming oracle and a
// materialized oracle over the same random sequences in lockstep — the
// streaming one fed through a bounded disclosure window of A references —
// and checks every query of both against a scan of the sequence, for the
// streaming one truncated at the window edge: NextUse and NextUseAfter
// read Never exactly when the true answer has not been appended yet.
func TestStreamingOracleMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		nBlocks := 2 + rng.Intn(24)
		n := rng.Intn(400)
		ahead := 1 + rng.Intn(70)
		ringCap := 1
		for ringCap < ahead+1 {
			ringCap *= 2
		}
		refs := make([]layout.BlockID, n)
		for i := range refs {
			refs[i] = layout.BlockID(rng.Intn(nBlocks))
		}
		mat := New(refs, nBlocks)
		str := NewStreaming(nBlocks, ringCap)

		filled := 0
		for c := 0; c <= n; c++ {
			for filled < n && filled < c+ahead {
				str.Append(refs[filled])
				filled++
			}
			mat.Advance(c)
			str.Advance(c)
			for b := 0; b < nBlocks; b++ {
				id := layout.BlockID(b)
				want := naiveNextUse(refs, c, id)
				if got := mat.NextUse(id); got != want {
					t.Fatalf("trial %d c=%d: materialized NextUse(%d) = %d, want %d", trial, c, b, got, want)
				}
				if want >= filled {
					want = Never
				}
				if got := str.NextUse(id); got != want {
					t.Fatalf("trial %d c=%d filled=%d: NextUse(%d) = %d, want %d",
						trial, c, filled, b, got, want)
				}
			}
			for u := c; u < filled; u++ {
				want := naiveNextUse(refs, u+1, refs[u])
				if got := mat.NextUseAfter(u); got != want {
					t.Fatalf("trial %d c=%d: materialized NextUseAfter(%d) = %d, want %d", trial, c, u, got, want)
				}
				if want >= filled {
					want = Never
				}
				if got := str.NextUseAfter(u); got != want {
					t.Fatalf("trial %d c=%d filled=%d: NextUseAfter(%d) = %d, want %d",
						trial, c, filled, u, got, want)
				}
			}
		}
	}
}

// TestSlidingDiskIndexMatchesNaiveScan drives a disk index through the
// engine's append/advance pattern with one long-lived cursor per disk,
// over both an unwrapped ring holding the whole sequence and a wrapping
// ring fed through a disclosure window, and checks each cursor against a
// model built on a scan of the sequence truncated to the window. The
// cursors resume after running out of appended positions and seek to the
// engine cursor when they fall behind it (or at random).
func TestSlidingDiskIndexMatchesNaiveScan(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 60; trial++ {
		refs, disks, diskOf := randomDiskTrace(rng, 24, 5)
		n := len(refs)
		ahead := 1 + rng.Intn(70)
		if trial%2 == 0 {
			ahead = n
		}
		dr := newIndexDriver(refs, disks, diskOf, ahead)
		curs := make([]DiskCursor, disks)
		models := make([]cursorModel, disks)
		for d := range curs {
			curs[d] = dr.x.Cursor(d)
			models[d].seek(dr, d)
		}
		for c := 0; c <= n; c++ {
			dr.advance(c)
			d := rng.Intn(disks)
			cur, m := &curs[d], &models[d]
			if m.pos(dr, d) < c || rng.Intn(4) == 0 {
				cur.Seek(c)
				m.seek(dr, d)
			}
			stopAfter := rng.Intn(6) // 0 means walk everything disclosed
			for steps := 0; ; steps++ {
				want := m.pos(dr, d)
				if got := cur.Pos(); got != want {
					t.Fatalf("trial %d ahead %d c=%d filled=%d d=%d step %d: cursor at %d, want %d",
						trial, ahead, c, dr.filled, d, steps, got, want)
				}
				if want == Never || (stopAfter > 0 && steps == stopAfter) {
					break
				}
				cur.Next()
				m.next(dr, d)
			}
		}
	}
}

// cursorModel is what a DiskCursor must do, stated over a scan: it sits
// at position at, having last moved past last; once at reads Never it
// resumes at the first disclosed position past both last and the cursor.
// Seek, like the cursor's, resolves its position at once.
type cursorModel struct{ at, last int }

func (m *cursorModel) seek(dr *indexDriver, d int) {
	m.at, m.last = Never, -1
	m.pos(dr, d)
}

func (m *cursorModel) pos(dr *indexDriver, d int) int {
	if m.at == Never {
		m.at = dr.next(d, max(m.last+1, dr.c))
	}
	return m.at
}

func (m *cursorModel) next(dr *indexDriver, d int) {
	if m.pos(dr, d) != Never {
		m.last = m.at
		m.at = dr.next(d, m.last+1)
	}
}
