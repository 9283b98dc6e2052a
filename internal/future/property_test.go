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

// randomDiskTrace returns a random sequence over up to maxBlocks blocks
// and up to maxDisks disks, with a disk mapping that excludes the
// highest block id, as the engine excludes the phantom.
func randomDiskTrace(rng *rand.Rand, maxBlocks, maxDisks int) ([]layout.BlockID, int, func(layout.BlockID) int) {
	nBlocks := 2 + rng.Intn(maxBlocks)
	disks := 1 + rng.Intn(maxDisks)
	refs := make([]layout.BlockID, rng.Intn(400))
	for i := range refs {
		refs[i] = layout.BlockID(rng.Intn(nBlocks))
	}
	diskOf := func(b layout.BlockID) int {
		if int(b) == nBlocks-1 {
			return -1
		}
		return int(b) % disks
	}
	return refs, disks, diskOf
}

// indexDriver feeds a disk index as the engine does: the cursor c only
// advances, popping the positions it consumes, and positions [c,
// c+ahead) are disclosed. With ahead >= len(refs) the index is built over
// the whole sequence (an unwrapped ring); otherwise positions are
// appended to a sliding ring just large enough for the window.
type indexDriver struct {
	refs      []layout.BlockID
	diskOf    func(layout.BlockID) int
	x         *DiskIndex
	ahead     int
	c, filled int
}

func newIndexDriver(refs []layout.BlockID, disks int, diskOf func(layout.BlockID) int, ahead int) *indexDriver {
	dr := &indexDriver{refs: refs, diskOf: diskOf, ahead: ahead}
	if ahead >= len(refs) {
		dr.x, dr.filled = NewDiskIndex(refs, disks, diskOf), len(refs)
		return dr
	}
	ringCap := 1
	for ringCap < ahead+1 {
		ringCap *= 2
	}
	dr.x = NewSlidingDiskIndex(disks, ringCap)
	dr.advance(0)
	return dr
}

// advance moves the cursor to c one position at a time, keeping [cursor,
// cursor+ahead) disclosed at every step.
func (dr *indexDriver) advance(c int) {
	for {
		for ; dr.filled < min(dr.c+dr.ahead, len(dr.refs)); dr.filled++ {
			if d := dr.diskOf(dr.refs[dr.filled]); d >= 0 {
				dr.x.Append(dr.filled, d)
			}
		}
		if dr.c == c {
			return
		}
		if d := dr.diskOf(dr.refs[dr.c]); d >= 0 {
			dr.x.AdvancePast(dr.c, d)
		}
		dr.c++
	}
}

// next is naiveNext over the disclosed positions: disk d's first
// position in [from, filled), or Never.
func (dr *indexDriver) next(d, from int) int {
	if p := naiveNext(dr.refs, dr.diskOf, d, from); p < dr.filled {
		return p
	}
	return Never
}

// TestDiskIndexMatchesNaiveScan drives per-disk cursors over a disk
// index, built whole or fed through a sliding window, while the cursor
// advances and pops what it consumes. At random cursors it seeks a
// cursor to the run's cursor and steps it, checking every position
// against a scan of the disclosed sequence, and checks that walking from
// the cursor finds exactly the first missing position a full window scan
// would. It covers random traces, disk mappings, and presence sets,
// including blocks the mapping excludes (diskOf < 0, the engine's
// phantom). Before any advance, each disk's walk must be exactly its
// positions: together they partition the non-excluded ones.
func TestDiskIndexMatchesNaiveScan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		refs, disks, diskOf := randomDiskTrace(rng, 30, 6)
		n := len(refs)
		ahead := n
		if trial%2 == 1 {
			ahead = 1 + rng.Intn(70)
		}
		dr := newIndexDriver(refs, disks, diskOf, ahead)
		absent := make([]bool, len(refs)+32)
		for i := range absent {
			absent[i] = rng.Intn(2) == 0
		}
		curs := make([]DiskCursor, disks)
		for d := range curs {
			curs[d] = dr.x.Cursor(d)
			if ahead < n {
				continue
			}
			walk := curs[d]
			for p := dr.next(d, 0); p != Never; p = dr.next(d, p+1) {
				if got := walk.Pos(); got != p {
					t.Fatalf("trial %d: disk %d walk at %d, want %d", trial, d, got, p)
				}
				walk.Next()
			}
			if got := walk.Pos(); got != Never {
				t.Fatalf("trial %d: disk %d walk past its last position at %d", trial, d, got)
			}
		}
		for c := 0; c <= n; c += 1 + rng.Intn(8) {
			dr.advance(c)
			d := rng.Intn(disks)
			cur := &curs[d]
			cur.Seek(c)
			if got, want := cur.Pos(), dr.next(d, c); got != want {
				t.Fatalf("trial %d: disk %d Seek(%d) at %d, want %d", trial, d, c, got, want)
			}
			for steps := rng.Intn(5); steps > 0 && cur.Pos() != Never; steps-- {
				prev := cur.Pos()
				cur.Next()
				if got, want := cur.Pos(), dr.next(d, prev+1); got != want {
					t.Fatalf("trial %d: disk %d Next from %d at %d, want %d", trial, d, prev, got, want)
				}
			}
			if cur.Pos() == Never {
				cur.Next() // stepping past the end stays there
				if got := cur.Pos(); got != Never {
					t.Fatalf("trial %d: disk %d Next past the end at %d", trial, d, got)
				}
			}

			limit := c + rng.Intn(dr.filled-c+1)
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
	}
}
