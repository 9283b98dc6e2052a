package future

import (
	"math/rand"
	"testing"

	"ppcsim/internal/layout"
)

// naiveFirstMissing is the per-disk linear window scan the disk index
// replaced: first position in [c, limit) on disk d whose block is absent.
func naiveFirstMissing(refs []layout.BlockID, diskOf func(layout.BlockID) int, absent []bool, d, c, limit int) int {
	for p := c; p < limit; p++ {
		if diskOf(refs[p]) == d && absent[refs[p]] {
			return p
		}
	}
	return limit
}

// naiveNext is disk d's first indexed position at or after from, or
// Never: the answer a disk cursor must give after Seek(from).
func naiveNext(refs []layout.BlockID, diskOf func(layout.BlockID) int, d, from int) int {
	for p := max(from, 0); p < len(refs); p++ {
		if diskOf(refs[p]) == d {
			return p
		}
	}
	return Never
}

// TestDiskIndexMatchesNaiveScan drives per-disk cursors over a
// materialized index through random seeks — forward, backward to
// positions they already passed, and to unindexed positions — and steps,
// checking every position against a naive scan of the sequence, and that
// walking from the cursor finds exactly the first missing position the
// full window scan would. It covers random traces, disk mappings, and
// presence sets, including blocks the mapping excludes (diskOf < 0, the
// engine's phantom).
func TestDiskIndexMatchesNaiveScan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		nBlocks := 2 + rng.Intn(30)
		disks := 1 + rng.Intn(6)
		n := rng.Intn(400)
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
		idx := NewDiskIndex(refs, disks, diskOf)
		absent := make([]bool, nBlocks)
		for i := range absent {
			absent[i] = rng.Intn(2) == 0
		}
		curs := make([]DiskCursor, disks)
		for d := range curs {
			curs[d] = idx.Cursor(d)
			if got, want := curs[d].Pos(), naiveNext(refs, diskOf, d, 0); got != want {
				t.Fatalf("trial %d: fresh cursor on disk %d at %d, want %d", trial, d, got, want)
			}
		}
		for probe := 0; probe < 40; probe++ {
			d := rng.Intn(disks)
			cur := &curs[d]
			from := rng.Intn(n + 2)
			if p := cur.Pos(); p != Never && p > 0 && rng.Intn(2) == 0 {
				// Back to an indexed position the cursor already passed.
				from = int(idx.Positions(d)[rng.Intn(idx.LowerBound(d, p)+1)])
			}
			cur.Seek(from)
			if got, want := cur.Pos(), naiveNext(refs, diskOf, d, from); got != want {
				t.Fatalf("trial %d: disk %d Seek(%d) at %d, want %d", trial, d, from, got, want)
			}
			for steps := rng.Intn(5); steps > 0 && cur.Pos() != Never; steps-- {
				prev := cur.Pos()
				cur.Next()
				if got, want := cur.Pos(), naiveNext(refs, diskOf, d, prev+1); got != want {
					t.Fatalf("trial %d: disk %d Next from %d at %d, want %d", trial, d, prev, got, want)
				}
			}
			if cur.Pos() == Never {
				cur.Next() // stepping past the end stays there
				if got := cur.Pos(); got != Never {
					t.Fatalf("trial %d: disk %d Next past the end at %d", trial, d, got)
				}
			}

			c := rng.Intn(n + 1)
			limit := c + rng.Intn(n-c+1)
			got := limit
			cur.Seek(c)
			for p := cur.Pos(); p < limit; p = cur.Pos() {
				if absent[refs[p]] {
					got = p
					break
				}
				cur.Next()
			}
			if want := naiveFirstMissing(refs, diskOf, absent, d, c, limit); got != want {
				t.Fatalf("trial %d: first missing on disk %d in [%d,%d) = %d, want %d", trial, d, c, limit, got, want)
			}
		}
		// The per-disk lists must partition the non-excluded positions.
		total := 0
		for d := 0; d < disks; d++ {
			prev := int32(-1)
			for _, p := range idx.Positions(d) {
				if p <= prev {
					t.Fatalf("trial %d: disk %d positions not strictly ascending", trial, d)
				}
				if diskOf(refs[p]) != d {
					t.Fatalf("trial %d: position %d filed under disk %d, maps to %d", trial, p, d, diskOf(refs[p]))
				}
				prev = p
			}
			total += len(idx.Positions(d))
		}
		excluded := 0
		for _, b := range refs {
			if diskOf(b) < 0 {
				excluded++
			}
		}
		if total != n-excluded {
			t.Fatalf("trial %d: index holds %d positions, want %d", trial, total, n-excluded)
		}
	}
}
