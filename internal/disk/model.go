// Package disk models the storage devices of the simulation: a
// disk-accurate drive model (Parametric), which at HP97560Geometry() is
// the HP 97560 simulated by the paper's UW simulator (after Ruemmler &
// Wilkes and Kotz et al.), together with the driver-level request
// queueing and head-scheduling disciplines (CSCAN and FCFS) that the
// paper shows are crucial to prefetching performance.
//
// All times are in milliseconds.
package disk

const (
	// SectorSize is the size of one sector in bytes.
	SectorSize = 512
	// BlockSectors is the number of sectors in one 8 Kbyte file block.
	BlockSectors = 8192 / SectorSize
)

// Model computes the service time of one block-sized read. Implementations
// are stateful (they track head position, rotation and readahead cache
// contents) and are owned by exactly one Drive.
type Model interface {
	// Service returns the time to read the BlockSectors-long extent that
	// starts at logical block number lbn (in 8K blocks), given that the
	// request is started at time now. Implementations update their
	// internal head/cache state.
	Service(lbn int64, now float64) float64
}

// Breakdown decomposes one service time into its physical components.
// The components sum to the service time.
type Breakdown struct {
	SeekMs     float64
	RotationMs float64
	TransferMs float64
}

// BreakdownModel is implemented by models that can decompose their most
// recent Service result. Drives expose the decomposition on each Request
// for observability; models that cannot decompose report the whole
// service time as transfer.
type BreakdownModel interface {
	Model
	// LastBreakdown returns the decomposition of the last Service call.
	// It is meaningful only after RecordBreakdown(true).
	LastBreakdown() Breakdown
	// RecordBreakdown turns decomposition recording on or off. It is off
	// by default so unobserved runs skip the extra stores in Service.
	RecordBreakdown(on bool)
}

// simplePositionMs is the Simple model's fixed positioning (seek plus
// rotation) cost of a non-sequential access.
const simplePositionMs = 11.0

// simpleMediaMs is the Simple model's transfer time for one block: the
// HP 97560's media rate.
var simpleMediaMs = HP97560Geometry().blockMediaMs()

// Simple is a simplified fixed-latency drive model standing in for the
// paper's second (CMU RaidSim / IBM 0661 Lightning) simulator in the
// Table 2 cross-validation: sequential continuations cost the media
// transfer time; everything else costs a fixed 11 ms positioning delay
// plus the transfer.
type Simple struct {
	lastEnd int64
	started bool
	record  bool
	last    Breakdown
}

// LastBreakdown implements BreakdownModel; the fixed positioning cost is
// reported as seek.
func (m *Simple) LastBreakdown() Breakdown { return m.last }

// RecordBreakdown implements BreakdownModel.
func (m *Simple) RecordBreakdown(on bool) { m.record = on }

// NewSimple returns a fresh Simple model.
func NewSimple() *Simple { return &Simple{} }

// Service implements Model.
func (m *Simple) Service(lbn int64, now float64) float64 {
	start := lbn * BlockSectors
	t := simpleMediaMs
	var pos float64
	if !m.started || start != m.lastEnd {
		t += simplePositionMs
		pos = simplePositionMs
	}
	if m.record {
		m.last = Breakdown{SeekMs: pos, TransferMs: simpleMediaMs}
	}
	m.started = true
	m.lastEnd = start + BlockSectors
	return t
}
