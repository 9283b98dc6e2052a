package future

import (
	"math/rand"
	"testing"

	"ppcsim/internal/layout"
)

// TestStreamingOracleMatchesMaterialized drives a streaming oracle and a
// materialized oracle over the same random sequences in lockstep — the
// streaming one fed through a bounded disclosure window of A references —
// and checks that every query agrees with the materialized answer
// truncated at the window edge: NextUse and NextUseAfter read Never
// exactly when the true answer has not been appended yet, and Consumed
// (the per-block epoch) matches unconditionally.
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
			if str.Len() != filled {
				t.Fatalf("trial %d c=%d: streaming Len %d, appended %d", trial, c, str.Len(), filled)
			}
			for b := 0; b < nBlocks; b++ {
				id := layout.BlockID(b)
				want := mat.NextUse(id)
				if want >= filled {
					want = Never
				}
				if got := str.NextUse(id); got != want {
					t.Fatalf("trial %d c=%d filled=%d: NextUse(%d) = %d, want %d",
						trial, c, filled, b, got, want)
				}
				// NextUseAfter from a random position in the window.
				pos := c + rng.Intn(filled-c+1)
				want = mat.NextUseAfter(id, pos)
				if want >= filled {
					want = Never
				}
				if got := str.NextUseAfter(id, pos); got != want {
					t.Fatalf("trial %d c=%d filled=%d: NextUseAfter(%d, %d) = %d, want %d",
						trial, c, filled, b, pos, got, want)
				}
				if got, want := str.Consumed(id), mat.Consumed(id); got != want {
					t.Fatalf("trial %d c=%d: Consumed(%d) = %d, want %d", trial, c, b, got, want)
				}
			}
			for p := c; p < filled; p++ {
				if got := str.Block(p); got != refs[p] {
					t.Fatalf("trial %d c=%d: Block(%d) = %d, want %d", trial, c, p, got, refs[p])
				}
			}
		}
	}
}

// TestSlidingDiskIndexMatchesCSRScan drives a sliding disk index through
// the engine's append/advance pattern with one long-lived cursor per
// disk, and checks each yields exactly the positions a cursor over a CSR
// index of the full sequence does, truncated to the disclosure window.
// The cursors resume after running out of appended positions and seek
// to the engine cursor when they fall behind it (or at random).
func TestSlidingDiskIndexMatchesCSRScan(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		nBlocks := 2 + rng.Intn(24)
		disks := 1 + rng.Intn(5)
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
		// The highest block id is excluded, as the engine excludes the
		// phantom.
		diskOf := func(b layout.BlockID) int {
			if int(b) == nBlocks-1 {
				return -1
			}
			return int(b) % disks
		}
		csr := NewDiskIndex(refs, disks, diskOf)
		sl := NewSlidingDiskIndex(disks, ringCap)
		slCur := make([]DiskCursor, disks)
		csrCur := make([]DiskCursor, disks)
		for d := range slCur {
			slCur[d], csrCur[d] = sl.Cursor(d), csr.Cursor(d)
		}

		filled := 0
		for c := 0; c <= n; c++ {
			for filled < n && filled < c+ahead {
				if d := diskOf(refs[filled]); d >= 0 {
					sl.Append(filled, d)
				}
				filled++
			}
			if c > 0 {
				if d := diskOf(refs[c-1]); d >= 0 {
					sl.AdvancePast(c-1, d)
				}
			}
			d := rng.Intn(disks)
			sc, cc := &slCur[d], &csrCur[d]
			if cc.Pos() < c || rng.Intn(4) == 0 {
				sc.Seek(c)
				cc.Seek(c)
			}
			stopAfter := rng.Intn(6) // 0 means walk everything disclosed
			for steps := 0; ; steps++ {
				want := cc.Pos()
				if want >= filled {
					want = Never
				}
				if got := sc.Pos(); got != want {
					t.Fatalf("trial %d c=%d filled=%d d=%d step %d: sliding cursor at %d, CSR at %d",
						trial, c, filled, d, steps, got, want)
				}
				if want == Never || (stopAfter > 0 && steps == stopAfter) {
					break
				}
				sc.Next()
				cc.Next()
			}
		}
	}
}
