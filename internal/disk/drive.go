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

	// The queue. Under CSCAN, ahead holds the requests at or past the
	// head and behind the rest, each a heap in (LBN, arrival) order; under
	// FCFS, fifo holds them in arrival order.
	ahead, behind lbnHeap
	fifo          fifo
	current       *Request
	busyEnd       float64
	headLBN       int64
	nextSeq       int64

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
	n := dr.queued()
	if dr.current != nil {
		n++
	}
	return n
}

// BusyEnd returns the completion time of the in-service request. It is
// only meaningful when Busy() is true.
func (dr *Drive) BusyEnd() float64 { return dr.busyEnd }

// queued returns the number of requests waiting for service.
func (dr *Drive) queued() int { return len(dr.ahead) + len(dr.behind) + dr.fifo.n }

// Enqueue adds a request at time now and starts it immediately if the
// drive is idle.
func (dr *Drive) Enqueue(r *Request, now float64) {
	r.EnqueuedAt = now
	e := queuedReq{lbn: r.LBN, seq: dr.nextSeq, r: r}
	dr.nextSeq++
	switch {
	case dr.current == nil:
		// An idle drive's queue is empty, so r is the request it picks.
		dr.start(r, now)
	case dr.discipline == FCFS:
		dr.fifo.push(r)
	case r.LBN >= dr.headLBN:
		dr.ahead.push(e)
	default:
		dr.behind.push(e)
	}
}

// pick removes and returns the next request per the discipline. Under
// CSCAN that is the smallest (LBN, arrival) at or past the head, or, when
// none is, the smallest of all. The head only moves to the request
// picked, so ahead's minimum becomes the head and every request left in
// ahead stays at or past it; when ahead runs dry, the sweep wraps and
// behind, all of the queue, becomes ahead.
//
//ppcvet:hotpath
func (dr *Drive) pick() *Request {
	if dr.discipline == FCFS {
		return dr.fifo.pop()
	}
	if len(dr.ahead) == 0 {
		dr.ahead, dr.behind = dr.behind, dr.ahead
	}
	return dr.ahead.pop()
}

// start puts r into service.
//
//ppcvet:hotpath
func (dr *Drive) start(r *Request, now float64) {
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
	if dr.queued() > 0 {
		dr.start(dr.pick(), now)
	}
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

// queuedReq is one request in a CSCAN heap. Its sort keys, the LBN and
// the arrival order, sit in the slot so that comparing two does not
// dereference either request.
type queuedReq struct {
	lbn, seq int64
	r        *Request
}

func (a *queuedReq) before(b *queuedReq) bool {
	return a.lbn < b.lbn || a.lbn == b.lbn && a.seq < b.seq
}

// lbnHeap is a min-heap of queued requests in (LBN, arrival) order.
type lbnHeap []queuedReq

// push adds e.
//
//ppcvet:hotpath
func (h *lbnHeap) push(e queuedReq) {
	*h = append(*h, e)
	a := *h
	for j := len(a) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !a[j].before(&a[i]) {
			break
		}
		a[i], a[j] = a[j], a[i]
		j = i
	}
}

// pop removes and returns the least request; the heap must not be empty.
//
//ppcvet:hotpath
func (h *lbnHeap) pop() *Request {
	a := *h
	n := len(a) - 1
	r := a[0].r
	a[0] = a[n]
	a[n] = queuedReq{}
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && a[j2].before(&a[j]) {
			j = j2
		}
		if !a[j].before(&a[i]) {
			break
		}
		a[i], a[j] = a[j], a[i]
		i = j
	}
	*h = a[:n]
	return r
}

// fifo is a ring of requests in arrival order. It grows by doubling only
// when full, so its storage stays within twice the deepest the queue has
// been, or 8 slots.
type fifo struct {
	buf  []*Request // len is zero or a power of two
	head int        // index of the oldest request
	n    int        // number of requests held
}

// push appends r.
//
//ppcvet:hotpath
func (q *fifo) push(r *Request) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = r
	q.n++
}

// grow doubles the full ring, unrolling it to start at index 0.
func (q *fifo) grow() {
	buf := make([]*Request, 0, max(8, 2*len(q.buf)))
	buf = append(buf, q.buf[q.head:]...)
	buf = append(buf, q.buf[:q.head]...)
	q.buf, q.head = buf[:cap(buf)], 0
}

// pop removes and returns the oldest request; the ring must not be empty.
//
//ppcvet:hotpath
func (q *fifo) pop() *Request {
	r := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return r
}
