package disk

import (
	"fmt"

	"ppcsim/internal/layout"
)

// Discipline selects the driver-level head-scheduling policy.
type Discipline int

const (
	// CSCAN serves queued requests in increasing block order, wrapping
	// around to the lowest block when the sweep passes the end. The paper
	// uses CSCAN by default because it always scans in the direction the
	// drive reads, keeping the readahead cache effective.
	CSCAN Discipline = iota
	// FCFS serves queued requests in arrival order.
	FCFS
)

// String implements fmt.Stringer.
func (d Discipline) String() string {
	switch d {
	case CSCAN:
		return "CSCAN"
	case FCFS:
		return "FCFS"
	default:
		return fmt.Sprintf("Discipline(%d)", int(d))
	}
}

// Request is one outstanding block transfer handed to a drive.
type Request struct {
	Block      layout.BlockID
	LBN        int64 // logical block number within the drive
	EnqueuedAt float64
	// Write marks a write-behind update (no process stall depends on it).
	Write bool
	// ServiceMs is the modeled service time, filled in when the request
	// enters service.
	ServiceMs float64
	seq       int64 // arrival order, for FCFS
}

// Drive is one disk of the array: a service model plus a queue of
// outstanding requests reordered by the configured discipline. Fetches to
// a single drive are serialized; the engine runs one Drive per array slot.
type Drive struct {
	model      Model
	breakdown  BreakdownModel // model, when it can decompose service times
	discipline Discipline

	// OnStart, if set, is invoked as each request enters service with the
	// decomposition of its service time (the whole service time is
	// reported as transfer when the model cannot decompose). The engine
	// uses it to emit fetch-started observability events. The breakdown is
	// passed by value rather than stored on Request so the unobserved fast
	// path keeps the smaller request allocation.
	OnStart func(r *Request, b Breakdown, now float64)

	queue   []*Request
	current *Request
	busyEnd float64
	headLBN int64
	nextSeq int64

	// Statistics.
	busyTime      float64 // sum of service times, the in-service request's included
	completed     int64
	totalResponse float64
}

// NewDrive returns an idle drive using the given model and discipline.
func NewDrive(model Model, d Discipline) *Drive {
	bm, _ := model.(BreakdownModel)
	return &Drive{model: model, breakdown: bm, discipline: d}
}

// EnableBreakdown turns on per-request service-time decomposition in the
// underlying model (when it supports it). The engine calls this when an
// observer is installed; recording is off otherwise so the hot path skips
// the extra stores.
func (dr *Drive) EnableBreakdown() {
	if dr.breakdown != nil {
		dr.breakdown.RecordBreakdown(true)
	}
}

// Busy reports whether a request is in service.
func (dr *Drive) Busy() bool { return dr.current != nil }

// Outstanding returns the total number of requests at the drive, including
// the one in service.
func (dr *Drive) Outstanding() int {
	n := len(dr.queue)
	if dr.current != nil {
		n++
	}
	return n
}

// BusyEnd returns the completion time of the in-service request. It is
// only meaningful when Busy() is true.
func (dr *Drive) BusyEnd() float64 { return dr.busyEnd }

// Enqueue adds a request at time now and starts it immediately if the
// drive is idle.
func (dr *Drive) Enqueue(r *Request, now float64) {
	r.seq = dr.nextSeq
	dr.nextSeq++
	r.EnqueuedAt = now
	dr.queue = append(dr.queue, r)
	if dr.current == nil {
		dr.startNext(now)
	}
}

// pick removes and returns the next request per the discipline.
//
//ppcvet:hotpath
func (dr *Drive) pick() *Request {
	best := -1
	switch dr.discipline {
	case FCFS:
		for i, r := range dr.queue {
			if best < 0 || r.seq < dr.queue[best].seq {
				best = i
			}
		}
	case CSCAN:
		// Smallest LBN at or past the head; wrap to the global smallest.
		wrap := -1
		for i, r := range dr.queue {
			if r.LBN >= dr.headLBN {
				if best < 0 || r.LBN < dr.queue[best].LBN ||
					(r.LBN == dr.queue[best].LBN && r.seq < dr.queue[best].seq) {
					best = i
				}
			}
			if wrap < 0 || r.LBN < dr.queue[wrap].LBN ||
				(r.LBN == dr.queue[wrap].LBN && r.seq < dr.queue[wrap].seq) {
				wrap = i
			}
		}
		if best < 0 {
			best = wrap
		}
	}
	r := dr.queue[best]
	dr.queue[best] = dr.queue[len(dr.queue)-1]
	dr.queue = dr.queue[:len(dr.queue)-1]
	return r
}

// startNext puts the next queued request, if any, into service.
//
//ppcvet:hotpath
func (dr *Drive) startNext(now float64) {
	if len(dr.queue) == 0 {
		return
	}
	r := dr.pick()
	svc := dr.model.Service(r.LBN, now)
	r.ServiceMs = svc
	dr.current = r
	dr.busyEnd = now + svc
	dr.headLBN = r.LBN
	dr.busyTime += svc
	if dr.OnStart != nil {
		var b Breakdown
		if dr.breakdown != nil {
			b = dr.breakdown.LastBreakdown()
		} else {
			b.TransferMs = svc
		}
		dr.OnStart(r, b, now)
	}
}

// Complete finishes the in-service request (the caller must have advanced
// time to BusyEnd()) and starts the next queued request, if any. It
// returns the finished request.
func (dr *Drive) Complete(now float64) *Request {
	r := dr.current
	if r == nil {
		return nil
	}
	dr.current = nil
	dr.completed++
	dr.totalResponse += now - r.EnqueuedAt
	dr.startNext(now)
	return r
}

// Completed returns the number of requests fully serviced.
func (dr *Drive) Completed() int64 { return dr.completed }

// BusyTime returns the total time the drive has spent servicing requests.
func (dr *Drive) BusyTime() float64 { return dr.busyTime }

// MeanServiceMs returns the average per-request service time.
func (dr *Drive) MeanServiceMs() float64 {
	if dr.completed == 0 {
		return 0
	}
	return dr.busyTime / float64(dr.completed)
}

// MeanResponseMs returns the average request response time (queueing plus
// service).
func (dr *Drive) MeanResponseMs() float64 {
	if dr.completed == 0 {
		return 0
	}
	return dr.totalResponse / float64(dr.completed)
}
