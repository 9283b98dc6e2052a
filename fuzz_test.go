package ppcsim_test

import (
	"errors"
	"reflect"
	"testing"

	"ppcsim"
	"ppcsim/internal/layout"
	"ppcsim/internal/trace"
)

// fuzzCase is one configuration FuzzRun decodes from its input: a small
// trace with writes, an array size, a cache size and a hint spec, run
// under every algorithm.
type fuzzCase struct {
	tr        *ppcsim.Trace
	disks     int
	cache     int
	sched     ppcsim.Discipline
	driverMs  float64
	batch     int
	horizon   int
	hints     *ppcsim.HintSpec
	placeSeed int64
}

// fuzzHintLevels are the fractions and accuracies a fuzz input picks from.
var fuzzHintLevels = []float64{0, 0.25, 0.5, 0.9, 1}

// decodeFuzzCase turns bytes into a case. The first eight bytes pick the
// configuration; each later pair of bytes is one reference. Every input
// decodes to some case, so the fuzzer never wastes an input on a parse
// failure, and the run's rules, not the decoder, decide what is valid.
func decodeFuzzCase(data []byte) fuzzCase {
	var hdr [8]byte
	n := copy(hdr[:], data)
	data = data[n:]

	blocks := 1 + int(hdr[0]%64)
	c := fuzzCase{
		disks:     1 + int(hdr[1]%4),
		cache:     2 + int(hdr[2])%blocks, // 2 .. blocks+1
		sched:     ppcsim.Discipline(hdr[3] & 1),
		batch:     int(hdr[3]>>1) % 4, // 0 = the paper's default
		horizon:   int(hdr[3]>>3) % 8, // 0 = the paper's default
		placeSeed: int64(hdr[3] >> 6),
	}
	if hdr[4]&1 != 0 {
		c.driverMs = -1 // no driver overhead
	}

	files := 1 + int(hdr[4]>>1)%3
	if files > blocks {
		files = blocks
	}
	tr := &trace.Trace{Name: "fuzz", PlaceByFile: hdr[4]&8 != 0, CacheBlocks: c.cache}
	for i, first := 0, 0; i < files; i++ {
		size := blocks / files
		if i == files-1 {
			size = blocks - first
		}
		tr.Files = append(tr.Files, layout.File{First: layout.BlockID(first), Blocks: size})
		first += size
	}
	for len(data) >= 2 && len(tr.Refs) < 512 {
		b, x := data[0], data[1]
		data = data[2:]
		tr.Refs = append(tr.Refs, trace.Ref{
			Block:     layout.BlockID(int(b) % blocks),
			ComputeMs: float64(x&0x3f) / 8,
			Write:     x&0xc0 == 0xc0,
		})
	}
	if len(tr.Refs) == 0 {
		tr.Refs = []trace.Ref{{Block: 0, ComputeMs: 1}}
	}
	c.tr = tr

	if hdr[5]&1 != 0 {
		h := &ppcsim.HintSpec{
			Fraction: fuzzHintLevels[int(hdr[5]>>1)%len(fuzzHintLevels)],
			Accuracy: fuzzHintLevels[int(hdr[6])%len(fuzzHintLevels)],
			Seed:     int64(hdr[6] >> 4),
		}
		switch w := int(hdr[7]); {
		case w < 32:
			h.Window = 0 // unlimited
		case w < 64:
			h.Window = ppcsim.WindowNone
		default:
			h.Window = 1 + w%64
		}
		c.hints = h
	}
	return c
}

// options returns the case's Options for one algorithm.
func (c fuzzCase) options(alg ppcsim.Algorithm) ppcsim.Options {
	o := ppcsim.Options{
		Trace:            c.tr,
		Algorithm:        alg,
		Disks:            c.disks,
		CacheBlocks:      c.cache,
		Scheduler:        c.sched,
		BatchSize:        c.batch,
		Horizon:          c.horizon,
		DriverOverheadMs: c.driverMs,
		PlacementSeed:    c.placeSeed,
	}
	if c.hints != nil {
		h := *c.hints
		o.Hints = &h
	}
	return o
}

// checkFuzzResult states the identities every run's Result keeps: each
// reference is a hit, a miss or a write; every miss was fetched; elapsed
// time covers the compute time and stall is never negative; and there is
// one row per disk.
func checkFuzzResult(t *testing.T, r ppcsim.Result, refs int64, disks int) {
	t.Helper()
	switch {
	case r.CacheHits+r.CacheMisses+r.WriteRequests != refs:
		t.Fatalf("hits %d + misses %d + writes %d != %d refs", r.CacheHits, r.CacheMisses, r.WriteRequests, refs)
	case r.CacheMisses > r.Fetches:
		t.Fatalf("%d misses but only %d fetches", r.CacheMisses, r.Fetches)
	case r.StallTimeSec < 0 || r.ElapsedSec+1e-9 < r.ComputeSec:
		t.Fatalf("elapsed %g s < compute %g s or negative stall %g s", r.ElapsedSec, r.ComputeSec, r.StallTimeSec)
	case len(r.PerDisk) != disks:
		t.Fatalf("%d per-disk rows, want %d", len(r.PerDisk), disks)
	}
}

// FuzzRun runs small byte-built traces under every algorithm. Each run
// either fails with a *ConfigError or returns a Result that keeps the
// accounting identities; the same Options twice give equal Results; a
// windowed online run gives the same Result streamed from the trace's
// Source as materialized; and forestall whose stall forecast never fires
// gives fixed horizon's Result.
func FuzzRun(f *testing.F) {
	f.Add([]byte{5, 1, 3, 0, 0, 0, 0, 0, 0, 1, 1, 1, 2, 1, 3, 1, 0, 1, 4, 1, 1, 1})
	f.Add([]byte{40, 3, 20, 0x2b, 0x0b, 0x09, 0x12, 0x50, 7, 0xc4, 3, 2, 9, 0x81, 7, 4, 30, 8, 3, 2, 9, 1, 7, 4})
	f.Add([]byte{63, 2, 9, 1, 2, 0x07, 0x23, 20, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0xff, 17, 18})
	f.Add([]byte{9, 0, 255, 0x30, 9, 0x03, 0x01, 40, 0, 0, 0, 0, 0, 0xc0, 1, 0xc0, 2, 0, 0, 0})
	// H = 6 over a 3-block cache under FCFS: the horizon rule's
	// evictions land inside the window it already scanned.
	f.Add([]byte{0xcb, 0xaa, 0xcd, 0x31, 0xe3, 0x9a, 0xc8, 0x83, 0x81, 0xe5, 0x60, 0x7b, 0x58, 0x80, 0x59, 0xd9, 0xcd, 0xfd, 0xbd,
		0x09, 0x70, 0x0c, 0x03, 0x5f, 0x41, 0x27, 0x12, 0x68, 0x28, 0x35, 0x99, 0xac, 0xbc, 0xf1, 0x44, 0x2d, 0xb6, 0x62})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeFuzzCase(data)
		refs := int64(len(c.tr.Refs))
		for _, alg := range ppcsim.Algorithms {
			opts := c.options(alg)
			res, err := ppcsim.Run(opts)
			if err != nil {
				var cfgErr *ppcsim.ConfigError
				if !errors.As(err, &cfgErr) {
					t.Fatalf("%s: run failed outside the config rules: %v", alg, err)
				}
				continue
			}
			checkFuzzResult(t, res, refs, c.disks)
			again, err := ppcsim.Run(c.options(alg))
			if err != nil || !reflect.DeepEqual(res, again) {
				t.Fatalf("%s: a second run differs (err %v):\n%+v\n%+v", alg, err, res, again)
			}
			if alg == ppcsim.ReverseAggressive || c.hints == nil || c.hints.Window == 0 || int64(c.hints.Window) >= refs {
				// Only windowed online runs stream; a window covering
				// the whole trace counts as unlimited.
				continue
			}
			opts = c.options(alg)
			opts.Trace, opts.Source = nil, c.tr.Source()
			streamed, err := ppcsim.Run(opts)
			if err != nil || !reflect.DeepEqual(res, streamed) {
				t.Fatalf("%s: streamed run differs from materialized (err %v):\n%+v\n%+v", alg, err, res, streamed)
			}
		}
		fh, fs, err := forestallAsFixedHorizon(c.options(""))
		var cfgErr *ppcsim.ConfigError
		switch {
		case errors.As(err, &cfgErr):
			// The case breaks a run rule; the loop above checked that.
		case err != nil:
			t.Fatalf("forestall as fixed horizon: %v", err)
		case !reflect.DeepEqual(fh, fs):
			t.Fatalf("forestall whose forecast never fires differs from fixed horizon:\n%+v\n%+v", fs, fh)
		}
	})
}
