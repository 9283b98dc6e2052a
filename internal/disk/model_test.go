package disk

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// hp is the paper's drive geometry, and the timings the tests expect
// from it, derived here from the geometry rather than read off the model.
var (
	hp        = HP97560Geometry()
	hpRevMs   = 60000.0 / hp.RPM
	hpMediaMs = float64(BlockSectors) / float64(hp.SectorsPerTrack) * hpRevMs
	hpBusMs   = float64(BlockSectors*SectorSize) / (hp.BusMBPerSec * 1e6) * 1000.0
)

func TestValidateGeometry(t *testing.T) {
	if err := hp.Validate(); err != nil {
		t.Fatal(err)
	}
	if BlockSectors*SectorSize != 8192 {
		t.Errorf("block is %d bytes, want 8192", BlockSectors*SectorSize)
	}
	if hpRevMs < 14.9 || hpRevMs > 15.1 {
		t.Errorf("revolution %.3f ms out of range for 4002 rpm", hpRevMs)
	}
	// Paper Table 1: a 1.3 Gbyte drive.
	if bytes := float64(hp.SectorsPerTrack*hp.TracksPerCylinder*hp.Cylinders) * SectorSize; bytes < 1.3e9 || bytes > 1.4e9 {
		t.Errorf("capacity %.3g bytes, want about 1.3 GB", bytes)
	}
}

func TestSeekCurve(t *testing.T) {
	if hp.seekMs(0) != 0 {
		t.Errorf("zero-distance seek = %g, want 0", hp.seekMs(0))
	}
	// Short-seek form: 3.24 + 0.400*sqrt(d).
	if got, want := hp.seekMs(100), 3.24+0.400*10.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("seekMs(100) = %g, want %g", got, want)
	}
	// Long-seek form: 8.00 + 0.008*d.
	if got, want := hp.seekMs(1000), 8.00+8.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("seekMs(1000) = %g, want %g", got, want)
	}
	if hp.seekMs(-100) != hp.seekMs(100) {
		t.Error("seek must be symmetric in distance")
	}
	// The curve should be monotone nondecreasing.
	prev := 0.0
	for d := 0; d <= hp.Cylinders; d++ {
		s := hp.seekMs(d)
		if s < prev-1e-9 {
			t.Fatalf("seek not monotone at distance %d: %g < %g", d, s, prev)
		}
		prev = s
	}
	// Paper Table 1: maximum seek within a 100-cylinder group is 7.24 ms.
	if got := hp.seekMs(100); math.Abs(got-7.24) > 1e-9 {
		t.Errorf("seekMs(100) = %g, want 7.24 (paper section 3.2)", got)
	}
}

func TestTransferTimes(t *testing.T) {
	m := NewHP97560()
	// 16 sectors of a 72-sector track at 4002 rpm: ~3.33 ms.
	if m.mediaMs != hpMediaMs {
		t.Errorf("media time %g, want %g", m.mediaMs, hpMediaMs)
	}
	if hpMediaMs < 3.2 || hpMediaMs > 3.4 {
		t.Errorf("media time %g, want ~3.33", hpMediaMs)
	}
	// 8192 bytes over a 10 MB/s bus: ~0.82 ms.
	if m.busMs != hpBusMs {
		t.Errorf("bus time %g, want %g", m.busMs, hpBusMs)
	}
	if hpBusMs < 0.8 || hpBusMs > 0.85 {
		t.Errorf("bus time %g, want ~0.82", hpBusMs)
	}
}

func TestHP97560Sequential(t *testing.T) {
	m := NewHP97560()
	now := 0.0
	now += m.Service(0, now) // cold access pays positioning
	for lbn := int64(1); lbn < 50; lbn++ {
		svc := m.Service(lbn, now)
		now += svc
		// Back-to-back sequential reads cost about the media transfer
		// time (plus an occasional cylinder crossing).
		if svc > hpMediaMs+hp.seekMs(1)+1e-9 {
			t.Fatalf("sequential block %d cost %g ms, want <= media+headswitch", lbn, svc)
		}
		if svc < hpBusMs-1e-9 {
			t.Fatalf("sequential block %d cost %g ms, below bus transfer", lbn, svc)
		}
	}
}

func TestHP97560ReadaheadCacheHit(t *testing.T) {
	m := NewHP97560()
	now := 0.0
	now += m.Service(100, now)
	// Leave the drive idle long enough for readahead to fill, then
	// re-request the next sequential block: it should be served from the
	// cache at bus speed.
	now += 100.0
	svc := m.Service(101, now)
	if math.Abs(svc-hpBusMs) > 1e-9 {
		t.Errorf("readahead hit cost %g ms, want bus transfer %g", svc, hpBusMs)
	}
}

func TestHP97560RandomAccessCost(t *testing.T) {
	m := NewHP97560()
	now := 0.0
	now += m.Service(0, now)
	// A far-away random access pays seek + rotation + transfer: strictly
	// more than the transfer, at most seek_max + full rotation + transfer.
	svc := m.Service(50000, now)
	if svc <= hpMediaMs {
		t.Errorf("random access cost %g ms, want > media transfer", svc)
	}
	max := hp.seekMs(hp.Cylinders) + hpRevMs + hpMediaMs
	if svc > max {
		t.Errorf("random access cost %g ms, want <= %g", svc, max)
	}
}

func TestHP97560RotationalPosition(t *testing.T) {
	// The rotational delay depends on when the request arrives: issuing
	// the same access pattern at different times must change the cost.
	costs := map[float64]bool{}
	for _, t0 := range []float64{0, 1, 2, 3, 5, 7, 11} {
		m := NewHP97560()
		m.Service(0, t0)
		costs[m.Service(5000, t0+30)] = true
	}
	if len(costs) < 2 {
		t.Error("rotational latency should vary with arrival time")
	}
}

func TestSimpleModel(t *testing.T) {
	m := NewSimple()
	svc := m.Service(0, 0)
	if math.Abs(svc-(11.0+hpMediaMs)) > 1e-9 {
		t.Errorf("cold simple access = %g", svc)
	}
	if got := m.Service(1, svc); math.Abs(got-hpMediaMs) > 1e-9 {
		t.Errorf("sequential simple access = %g, want %g", got, hpMediaMs)
	}
	if got := m.Service(100, 20); math.Abs(got-(11.0+hpMediaMs)) > 1e-9 {
		t.Errorf("random simple access = %g", got)
	}
}

// TestServicePositive: every service time is strictly positive and finite
// for arbitrary request positions and times.
func TestServicePositive(t *testing.T) {
	m := NewHP97560()
	now := 0.0
	f := func(lbnRaw uint32, gapRaw uint16) bool {
		lbn := int64(lbnRaw % 2_000_000)
		now += float64(gapRaw) / 100.0
		svc := m.Service(lbn, now)
		now += svc
		return svc > 0 && !math.IsNaN(svc) && !math.IsInf(svc, 0) && svc < 60
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestHP97560AverageAccessTime pins the model to Table 1 of the paper:
// the HP 97560's average access time for an 8 Kbyte transfer is 22.8 ms.
// Uniformly random single-block reads across the whole drive should
// average close to that (seek to a uniformly random cylinder, rotational
// latency, media transfer).
func TestHP97560AverageAccessTime(t *testing.T) {
	m := NewHP97560()
	rng := rand.New(rand.NewSource(42))
	maxLBN := int64(hp.Cylinders*hp.SectorsPerTrack*hp.TracksPerCylinder) / BlockSectors
	now := 0.0
	now += m.Service(rng.Int63n(maxLBN), now)
	sum, n := 0.0, 0
	for i := 0; i < 4000; i++ {
		svc := m.Service(rng.Int63n(maxLBN), now)
		now += svc + 1.0 // small think time between requests
		sum += svc
		n++
	}
	avg := sum / float64(n)
	if avg < 19 || avg > 27 {
		t.Errorf("average random 8K access = %.2f ms, want ~22.8 (paper Table 1)", avg)
	}
}
