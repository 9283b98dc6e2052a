package disk

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"
)

// hpSpec is the exact behaviour of the paper's drive on one access
// sequence: a few service times as float64 bits, the SHA-256 of all of
// them (little-endian bits, in order) and the SHA-256 of every step's
// seek, rotation and transfer bits. The values come from an HP 97560
// model written out by hand with the paper's constants, so a change to a
// single bit of any service time fails.
type hpSpec struct {
	name string
	n    int
	// next returns the next block and the idle time after its service.
	next      func(i int, prev int64) (lbn int64, gapMs float64)
	bits      map[int]uint64 // step → service-time bits
	digest    string
	breakdown string
}

var hpSpecs = []hpSpec{
	{
		// Mostly far positioning moves: seek plus rotational position.
		name: "random",
		n:    2000,
		next: func(i int, lbn int64) (int64, float64) {
			lbn = (lbn*1103515245 + 12345) % 1_500_000
			if lbn < 0 {
				lbn = -lbn
			}
			if i%3 != 0 {
				lbn = (lbn + 1) % 1_500_000
			}
			return lbn, 0.25
		},
		bits: map[int]uint64{
			0:    0x40380f56e0463565, // cold drive
			1:    0x403b54b79f9394cb,
			2:    0x4038bccd359aee35,
			3:    0x403567e50c5312ba,
			1999: 0x403212fce30b392a,
		},
		digest:    "fdffa62da571965aa60ba728e4426cfcabd2e03e2a30a465bbff8d5ace5f26ac",
		breakdown: "33fd91dce56c12cae3428dab89bd7c94d8a66aa4998db88ff8af6b2db6d1efbb",
	},
	{
		// Sequential runs with idle gaps, short hops back and forth and a
		// far jump every 50 steps: readahead hits at bus speed, media-rate
		// continuations and cylinder crossings.
		name: "sequential",
		n:    2000,
		next: func(i int, lbn int64) (int64, float64) {
			switch {
			case i%50 == 0:
				return (lbn*48271 + 11) % 1_500_000, 0.5
			case i%7 == 0:
				return lbn + 3, 40
			case i%11 == 0:
				return lbn - 2, 0
			default:
				return lbn + 1, float64(i%5) * 2.5
			}
		},
		bits: map[int]uint64{
			1:  0x400aa7414a3edbf7, // media-rate continuation
			3:  0x3fea36e2eb1c432c, // readahead hit
			49: 0x4028fffc8f13cf3b,
			50: 0x4035a2c6fbb15c9e, // far jump
			51: 0x401be2fcce15308b, // continuation into the next cylinder
		},
		digest:    "c0d7dd3d1be363e1a7ab5b79ae8522fd66a541068d5a539ae89f8c407deb0351",
		breakdown: "edaa6d539ca6a4cc4c3cd16923f2380188576503408486c2843324e2a0e82a38",
	},
}

// TestParametricMatchesHP97560 holds the parametric model at the
// HP 97560 geometry, built either way, to the paper drive's service
// times bit for bit.
func TestParametricMatchesHP97560(t *testing.T) {
	builds := []struct {
		name string
		new  func() (*Parametric, error)
	}{
		{"NewHP97560", func() (*Parametric, error) { return NewHP97560(), nil }},
		{"NewParametric", func() (*Parametric, error) { return NewParametric(HP97560Geometry()) }},
	}
	for _, s := range hpSpecs {
		for _, b := range builds {
			m, err := b.new()
			if err != nil {
				t.Fatal(err)
			}
			m.RecordBreakdown(true)
			sum, bsum := sha256.New(), sha256.New()
			var buf [8]byte
			write := func(h hash.Hash, x float64) {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
				h.Write(buf[:])
			}
			now, lbn := 0.0, int64(1)
			for i := 0; i < s.n; i++ {
				var gap float64
				lbn, gap = s.next(i, lbn)
				svc := m.Service(lbn, now)
				if want, ok := s.bits[i]; ok && math.Float64bits(svc) != want {
					t.Errorf("%s %s: step %d (block %d) took %v (%#x), want %v (%#x)",
						s.name, b.name, i, lbn, svc, math.Float64bits(svc), math.Float64frombits(want), want)
				}
				write(sum, svc)
				bd := m.LastBreakdown()
				write(bsum, bd.SeekMs)
				write(bsum, bd.RotationMs)
				write(bsum, bd.TransferMs)
				now += svc + gap
			}
			if got := hex.EncodeToString(sum.Sum(nil)); got != s.digest {
				t.Errorf("%s %s: service-time digest %s, want %s", s.name, b.name, got, s.digest)
			}
			if got := hex.EncodeToString(bsum.Sum(nil)); got != s.breakdown {
				t.Errorf("%s %s: breakdown digest %s, want %s", s.name, b.name, got, s.breakdown)
			}
		}
	}
}

func TestParametricValidation(t *testing.T) {
	bad := []Geometry{
		{},
		func() Geometry { g := HP97560Geometry(); g.SectorsPerTrack = 0; return g }(),
		func() Geometry { g := HP97560Geometry(); g.RPM = 0; return g }(),
		func() Geometry { g := HP97560Geometry(); g.Cylinders = -1; return g }(),
		func() Geometry { g := HP97560Geometry(); g.CacheBytes = -5; return g }(),
		func() Geometry { g := HP97560Geometry(); g.BusMBPerSec = 0; return g }(),
		// Sectors per cylinder wraps to zero.
		func() Geometry {
			g := HP97560Geometry()
			g.SectorsPerTrack, g.TracksPerCylinder = 1<<32, 1<<32
			return g
		}(),
		// Sectors per cylinder wraps negative.
		func() Geometry {
			g := HP97560Geometry()
			g.SectorsPerTrack, g.TracksPerCylinder = 1<<31, 1<<32
			return g
		}(),
		func() Geometry { g := HP97560Geometry(); g.SectorsPerTrack = math.MaxInt; return g }(),
	}
	for i, g := range bad {
		if _, err := NewParametric(g); err == nil {
			t.Errorf("geometry %d should be rejected", i)
		}
	}
	if _, err := NewParametric(HP97560Geometry()); err != nil {
		t.Errorf("HP geometry rejected: %v", err)
	}
}

func TestParametricNoReadahead(t *testing.T) {
	g := HP97560Geometry()
	g.CacheBytes = 0
	g.BusMBPerSec = 0 // allowed when the cache is disabled
	m, err := NewParametric(g)
	if err != nil {
		t.Fatal(err)
	}
	now := m.Service(100, 0)
	// With no readahead cache, a re-read after idle time still pays the
	// media transfer (never the bus-only fast path).
	svc := m.Service(101, now+200)
	if svc < hpMediaMs-1e-9 {
		t.Errorf("no-cache sequential read cost %g, want >= media %g", svc, hpMediaMs)
	}
}

func TestParametricFasterDrive(t *testing.T) {
	// A drive spinning twice as fast with a flatter seek curve must give
	// strictly lower average service on a random workload.
	fast := HP97560Geometry()
	fast.RPM *= 2
	fast.SeekConst /= 2
	fast.SeekSqrt /= 2
	fast.SeekLinConst /= 2
	fast.SeekLin /= 2
	slowM, _ := NewParametric(HP97560Geometry())
	fastM, _ := NewParametric(fast)
	sumS, sumF := 0.0, 0.0
	nowS, nowF := 0.0, 0.0
	lbn := int64(7)
	for i := 0; i < 500; i++ {
		lbn = (lbn*48271 + 11) % 1_000_000
		s := slowM.Service(lbn, nowS)
		f := fastM.Service(lbn, nowF)
		sumS += s
		sumF += f
		nowS += s + 1
		nowF += f + 1
	}
	if sumF >= sumS {
		t.Errorf("faster drive total %g >= slower %g", sumF, sumS)
	}
}

// FuzzAngle holds the platter-angle remainder to math.Mod, bit for bit,
// for every finite x >= 0 and every rotation speed a geometry accepts.
// The seeds sit on multiples of the HP 97560's period and one ulp either
// side, where a quotient rounded up across an integer must be stepped
// back.
func FuzzAngle(f *testing.F) {
	rev := HP97560Geometry().revolutionMs()
	for _, k := range []float64{1, 2, 3, 7, 1000, 65536, 1e6, 6.5e10} {
		m := k * rev
		for _, x := range []float64{m, math.Nextafter(m, 0), math.Nextafter(m, math.Inf(1))} {
			f.Add(x, 4002.0)
		}
	}
	for _, x := range []float64{0, 1, 1e12} {
		f.Add(x, 4002.0)
	}
	f.Add(1e300, 4002.0)
	f.Add(5e-324, 7200.0)
	f.Add(1e5, 5e-324)
	f.Fuzz(func(t *testing.T, x, rpm float64) {
		if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 ||
			math.IsNaN(rpm) || math.IsInf(rpm, 0) || rpm <= 0 {
			t.Skip()
		}
		rev := Geometry{RPM: rpm}.revolutionMs()
		if got, want := remainder(x, rev), math.Mod(x, rev); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("remainder(%v, %v) = %v, math.Mod gives %v", x, rev, got, want)
		}
	})
}
