package disk

import (
	"fmt"
	"math"
)

// Geometry parameterizes the drive model: its per-cylinder capacity, a
// two-segment seek curve, rotational speed, readahead cache and bus
// rate. The paper's drive is HP97560Geometry(); other values simulate
// other hardware. The zero value is not usable.
type Geometry struct {
	// SectorsPerTrack and TracksPerCylinder define the per-cylinder
	// capacity (512-byte sectors).
	SectorsPerTrack   int
	TracksPerCylinder int
	// Cylinders is the seek range.
	Cylinders int
	// RPM is the rotational speed.
	RPM float64
	// SeekConst/SeekSqrt define short seeks: SeekConst + SeekSqrt*sqrt(d)
	// milliseconds for d < SeekBoundary cylinders.
	SeekConst float64
	SeekSqrt  float64
	// SeekLinConst/SeekLin define long seeks: SeekLinConst + SeekLin*d.
	SeekBoundary int
	SeekLinConst float64
	SeekLin      float64
	// CacheBytes is the readahead cache capacity (0 disables readahead).
	CacheBytes int
	// BusMBPerSec is the interface transfer rate for cache hits.
	BusMBPerSec float64
}

// HP97560Geometry returns the geometry of the paper's drive, the
// HP 97560 of its Table 1: 72 sectors per track, 19 tracks per
// cylinder, 1962 cylinders at 4002 rpm, the Ruemmler & Wilkes seek
// curve (3.24 + 0.400*sqrt(d) ms below 383 cylinders, 8.00 + 0.008*d
// ms beyond), a 128 Kbyte readahead cache and a 10 MB/s SCSI-II bus.
// NewHP97560 is the model at this geometry.
func HP97560Geometry() Geometry {
	return Geometry{
		SectorsPerTrack:   72,
		TracksPerCylinder: 19,
		Cylinders:         1962,
		RPM:               4002,
		SeekConst:         3.24,
		SeekSqrt:          0.400,
		SeekBoundary:      383,
		SeekLinConst:      8.00,
		SeekLin:           0.008,
		CacheBytes:        128 * 1024,
		BusMBPerSec:       10.0,
	}
}

// Validate checks the geometry for usability.
func (g Geometry) Validate() error {
	for _, x := range []float64{g.RPM, g.SeekConst, g.SeekSqrt, g.SeekLinConst, g.SeekLin, g.BusMBPerSec} {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("disk: non-finite parameter %g", x)
		}
	}
	switch {
	case g.SectorsPerTrack <= 0:
		return fmt.Errorf("disk: SectorsPerTrack %d", g.SectorsPerTrack)
	case g.TracksPerCylinder <= 0:
		return fmt.Errorf("disk: TracksPerCylinder %d", g.TracksPerCylinder)
	case g.SectorsPerTrack > math.MaxInt/g.TracksPerCylinder:
		return fmt.Errorf("disk: %d sectors per track times %d tracks per cylinder overflows",
			g.SectorsPerTrack, g.TracksPerCylinder)
	case g.Cylinders <= 0:
		return fmt.Errorf("disk: Cylinders %d", g.Cylinders)
	case g.RPM <= 0:
		return fmt.Errorf("disk: RPM %g", g.RPM)
	case g.SeekBoundary < 0:
		return fmt.Errorf("disk: SeekBoundary %d", g.SeekBoundary)
	case g.CacheBytes < 0:
		return fmt.Errorf("disk: CacheBytes %d", g.CacheBytes)
	case g.CacheBytes > 0 && g.BusMBPerSec <= 0:
		return fmt.Errorf("disk: readahead cache needs a positive bus rate")
	}
	return nil
}

// revolutionMs is the rotation period.
func (g Geometry) revolutionMs() float64 { return 60000.0 / g.RPM }

// blockMediaMs is the time for the platter to pass one block's sectors
// under the head.
func (g Geometry) blockMediaMs() float64 {
	return float64(BlockSectors) / float64(g.SectorsPerTrack) * g.revolutionMs()
}

// seekMs evaluates the two-segment seek curve. A zero-distance seek is
// free.
func (g *Geometry) seekMs(dist int) float64 {
	if dist < 0 {
		dist = -dist
	}
	switch {
	case dist == 0:
		return 0
	case dist < g.SeekBoundary:
		return g.SeekConst + float64(g.SeekSqrt*math.Sqrt(float64(dist)))
	default:
		return g.SeekLinConst + float64(g.SeekLin*float64(dist))
	}
}

// Parametric is the disk-accurate drive model: a two-segment seek
// curve, rotational latency derived from the modeled angular position
// of the platter, media-rate transfer, and a readahead cache that serves
// sequential re-reads at bus speed and sequential continuations at media
// speed without seek or rotational delay. Everything Service needs from
// the geometry is worked out once, when the model is built.
type Parametric struct {
	g            Geometry // for the seek curve
	revMs        float64  // rotation period
	sectors      float64  // sectors per track
	secPerTrack  int64
	secPerCyl    int64 // sectors under all heads of one cylinder
	cylinders    int64
	cacheSectors int64 // readahead cache capacity; 0 disables it
	mediaMs      float64
	busMs        float64
	coldSeekMs   float64 // the first request's seek, a third of the range
	crossSeekMs  float64 // a sequential read crossing into the next cylinder

	initialized bool
	headCyl     int     // cylinder the head is parked over
	lastEnd     int64   // linear sector just past the previous request
	idleFrom    float64 // completion time of the previous request
	cacheLo     int64   // readahead cache window [cacheLo, cacheHi)
	cacheHi     int64
	record      bool      // record per-call decompositions into last
	last        Breakdown // decomposition of the last Service call
}

// LastBreakdown implements BreakdownModel.
func (m *Parametric) LastBreakdown() Breakdown { return m.last }

// RecordBreakdown implements BreakdownModel.
func (m *Parametric) RecordBreakdown(on bool) { m.record = on }

// NewParametric builds a drive model from the geometry.
func NewParametric(g Geometry) (*Parametric, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return newParametric(g), nil
}

// NewHP97560 returns a fresh model of the paper's drive:
// NewParametric(HP97560Geometry()).
func NewHP97560() *Parametric { return newParametric(HP97560Geometry()) }

func newParametric(g Geometry) *Parametric {
	busMs := math.Inf(1)
	if g.BusMBPerSec > 0 {
		busMs = float64(BlockSectors*SectorSize) / (g.BusMBPerSec * 1e6) * 1000.0
	}
	return &Parametric{
		g:            g,
		revMs:        g.revolutionMs(),
		sectors:      float64(g.SectorsPerTrack),
		secPerTrack:  int64(g.SectorsPerTrack),
		secPerCyl:    int64(g.SectorsPerTrack * g.TracksPerCylinder),
		cylinders:    int64(g.Cylinders),
		cacheSectors: int64(g.CacheBytes / SectorSize),
		mediaMs:      g.blockMediaMs(),
		busMs:        busMs,
		coldSeekMs:   g.seekMs(g.Cylinders / 3),
		crossSeekMs:  g.seekMs(1),
	}
}

// Service implements Model.
//
//ppcvet:hotpath
func (m *Parametric) Service(lbn int64, now float64) float64 {
	start := lbn * BlockSectors
	end := start + BlockSectors
	cyl := int(start / m.secPerCyl % m.cylinders)

	if !m.initialized {
		m.initialized = true
		// Cold drive: average-ish positioning cost.
		m.headCyl = cyl
		m.lastEnd = end
		if m.record {
			m.last = Breakdown{SeekMs: m.coldSeekMs, RotationMs: m.revMs / 2, TransferMs: m.mediaMs}
		}
		t := m.coldSeekMs + float64(m.revMs/2) + m.mediaMs
		m.idleFrom = now + t
		m.cacheLo, m.cacheHi = start, end
		return t
	}

	// Let the readahead cache grow during the idle period since the last
	// request completed: the drive keeps streaming sectors at media rate.
	if idle := now - m.idleFrom; idle > 0 && m.cacheSectors > 0 {
		m.cacheHi += int64(idle / m.revMs * m.sectors)
		if m.cacheHi > m.cacheLo+m.cacheSectors {
			m.cacheHi = m.cacheLo + m.cacheSectors
		}
	}

	var t float64
	switch {
	case m.cacheSectors > 0 && start >= m.cacheLo && end <= m.cacheHi:
		// Whole extent already in the readahead cache: bus transfer only.
		t = m.busMs
		if m.record {
			m.last = Breakdown{TransferMs: m.busMs}
		}
	case start == m.lastEnd:
		// Sequential continuation: the head is already positioned; pay
		// media transfer (plus a cylinder crossing if we wrapped).
		t = m.mediaMs
		var seek float64
		if cyl != m.headCyl {
			seek = m.crossSeekMs
			t += seek
		}
		if m.record {
			m.last = Breakdown{SeekMs: seek, TransferMs: m.mediaMs}
		}
	default:
		// Positioning: seek plus rotational latency from the modeled
		// angular position after the seek, plus the media transfer.
		seek := m.g.seekMs(cyl - m.headCyl)
		arrive := now + seek
		// Angle of the platter at arrival, measured in sectors.
		angle := float64(remainder(arrive, m.revMs) / m.revMs * m.sectors)
		rot := float64(start%m.secPerTrack) - angle
		if rot < 0 {
			rot += m.sectors
		}
		rotMs := float64(rot / m.sectors * m.revMs)
		if m.record {
			m.last = Breakdown{SeekMs: seek, RotationMs: rotMs, TransferMs: m.mediaMs}
		}
		t = seek + rotMs + m.mediaMs
	}

	m.headCyl = cyl
	m.lastEnd = end
	m.idleFrom = now + t
	if start >= m.cacheLo && start <= m.cacheHi {
		// Extend the cached window over the newly read data.
		if end > m.cacheHi {
			m.cacheHi = end
		}
	} else {
		m.cacheLo, m.cacheHi = start, end
	}
	if m.cacheSectors > 0 && m.cacheHi-m.cacheLo > m.cacheSectors {
		m.cacheLo = m.cacheHi - m.cacheSectors
	}
	return t
}

// remainder returns x mod rev for x >= 0 and rev > 0, bit for bit what
// math.Mod returns, without math.Mod's frexp/ldexp loop.
//
// Below 2^52 periods k = floor(x/rev) is an exact integer, and rounding
// x/rev can carry it across at most one integer, upwards, so k is the
// true quotient or one more. x - k·rev is then the remainder or the
// remainder less rev: a multiple of rev's last place no larger than rev,
// hence representable, and math.FMA, which rounds once, returns it
// exactly. The package's other products are wrapped in float64(...) so
// that no architecture fuses them; this math.FMA is the one deliberate
// fused multiply-add, and it is exact on every architecture.
func remainder(x, rev float64) float64 {
	q := x / rev
	if q < 1 {
		return x // x < rev, or rev is infinite
	}
	if !(q < 1<<52) {
		return math.Mod(x, rev) // k would not be exact, or x is not finite
	}
	k := math.Floor(q)
	r := math.FMA(-k, rev, x)
	if r < 0 {
		r = math.FMA(-(k - 1), rev, x)
	}
	return r
}
