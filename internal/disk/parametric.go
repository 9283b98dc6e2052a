package disk

import (
	"fmt"
	"math"
)

// Geometry parameterizes a Parametric drive model, so workloads can be
// simulated against hardware other than the HP 97560. The zero value is
// not usable; see HP97560Geometry for a complete example.
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

// HP97560Geometry returns the geometry of the paper's drive; a
// Parametric model built from it behaves like NewHP97560.
func HP97560Geometry() Geometry {
	return Geometry{
		SectorsPerTrack:   SectorsPerTrack,
		TracksPerCylinder: TracksPerCylinder,
		Cylinders:         Cylinders,
		RPM:               RPM,
		SeekConst:         3.24,
		SeekSqrt:          0.400,
		SeekBoundary:      383,
		SeekLinConst:      8.00,
		SeekLin:           0.008,
		CacheBytes:        CacheBytes,
		BusMBPerSec:       BusMBPerSec,
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

// seekMs evaluates the two-segment seek curve.
func (g Geometry) seekMs(dist int) float64 {
	if dist < 0 {
		dist = -dist
	}
	switch {
	case dist == 0:
		return 0
	case dist < g.SeekBoundary:
		return g.SeekConst + g.SeekSqrt*math.Sqrt(float64(dist))
	default:
		return g.SeekLinConst + g.SeekLin*float64(dist)
	}
}

// Parametric is a drive model with the same structure as the HP 97560
// model (seek curve, rotational position, media/bus transfer, readahead
// cache) but arbitrary parameters.
type Parametric struct {
	g Geometry

	initialized bool
	headCyl     int
	lastEnd     int64
	idleFrom    float64
	cacheLo     int64
	cacheHi     int64
	record      bool
	last        Breakdown
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
	return &Parametric{g: g}, nil
}

// Geometry returns the model's parameters.
func (m *Parametric) Geometry() Geometry { return m.g }

// Reset implements Model.
func (m *Parametric) Reset() {
	g := m.g
	*m = Parametric{g: g, record: m.record}
}

// Service implements Model.
func (m *Parametric) Service(lbn int64, now float64) float64 {
	g := m.g
	rev := g.revolutionMs()
	secPerCyl := int64(g.SectorsPerTrack * g.TracksPerCylinder)
	cacheSec := int64(g.CacheBytes / SectorSize)
	mediaMs := float64(BlockSectors) / float64(g.SectorsPerTrack) * rev
	busMs := math.Inf(1)
	if g.BusMBPerSec > 0 {
		busMs = float64(BlockSectors*SectorSize) / (g.BusMBPerSec * 1e6) * 1000.0
	}

	start := lbn * BlockSectors
	end := start + BlockSectors
	cyl := int(start / secPerCyl % int64(g.Cylinders))

	if !m.initialized {
		m.initialized = true
		m.headCyl = cyl
		m.lastEnd = end
		seek := g.seekMs(g.Cylinders / 3)
		if m.record {
			m.last = Breakdown{SeekMs: seek, RotationMs: rev / 2, TransferMs: mediaMs}
		}
		t := seek + rev/2 + mediaMs
		m.idleFrom = now + t
		m.cacheLo, m.cacheHi = start, end
		return t
	}
	if idle := now - m.idleFrom; idle > 0 && cacheSec > 0 {
		grown := int64(idle / rev * float64(g.SectorsPerTrack))
		m.cacheHi += grown
		if m.cacheHi > m.cacheLo+cacheSec {
			m.cacheHi = m.cacheLo + cacheSec
		}
	}
	var t float64
	switch {
	case cacheSec > 0 && start >= m.cacheLo && end <= m.cacheHi:
		t = busMs
		if m.record {
			m.last = Breakdown{TransferMs: busMs}
		}
	case start == m.lastEnd:
		t = mediaMs
		var seek float64
		if cyl != m.headCyl {
			seek = g.seekMs(1)
			t += seek
		}
		if m.record {
			m.last = Breakdown{SeekMs: seek, TransferMs: mediaMs}
		}
	default:
		seek := g.seekMs(cyl - m.headCyl)
		arrive := now + seek
		angle := math.Mod(arrive, rev) / rev * float64(g.SectorsPerTrack)
		target := float64(start % int64(g.SectorsPerTrack))
		rot := target - angle
		if rot < 0 {
			rot += float64(g.SectorsPerTrack)
		}
		rotMs := rot / float64(g.SectorsPerTrack) * rev
		if m.record {
			m.last = Breakdown{SeekMs: seek, RotationMs: rotMs, TransferMs: mediaMs}
		}
		t = seek + rotMs + mediaMs
	}
	m.headCyl = cyl
	m.lastEnd = end
	m.idleFrom = now + t
	if start >= m.cacheLo && start <= m.cacheHi {
		if end > m.cacheHi {
			m.cacheHi = end
		}
	} else {
		m.cacheLo, m.cacheHi = start, end
	}
	if cacheSec > 0 && m.cacheHi-m.cacheLo > cacheSec {
		m.cacheLo = m.cacheHi - cacheSec
	}
	return t
}
