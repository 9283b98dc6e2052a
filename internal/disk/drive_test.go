package disk

import (
	"math/rand"
	"slices"
	"testing"

	"ppcsim/internal/layout"
	"ppcsim/internal/spec"
)

// unitModel serves every request in exactly 1 ms.
type unitModel struct{}

func (unitModel) Service(int64, float64) float64 { return 1.0 }

// drain completes requests until the drive idles, returning completion
// order.
func drain(dr *Drive) []layout.BlockID {
	var got []layout.BlockID
	for dr.Busy() {
		r := dr.Complete(dr.BusyEnd())
		got = append(got, r.Block)
	}
	return got
}

func TestFCFSOrder(t *testing.T) {
	dr := NewDrive(unitModel{}, FCFS)
	for i, lbn := range []int64{50, 10, 30, 20} {
		dr.Enqueue(&Request{Block: layout.BlockID(i), LBN: lbn}, 0)
	}
	got := drain(dr)
	want := []layout.BlockID{0, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FCFS order %v, want %v", got, want)
		}
	}
}

func TestCSCANOrder(t *testing.T) {
	dr := NewDrive(unitModel{}, CSCAN)
	// First request (LBN 50) starts service immediately; the rest queue
	// and are served in ascending LBN from the head position (50), then
	// wrap: 50, then 60, 90, wrap to 10, 30.
	for i, lbn := range []int64{50, 90, 10, 60, 30} {
		dr.Enqueue(&Request{Block: layout.BlockID(i), LBN: lbn}, 0)
	}
	got := drain(dr)
	want := []layout.BlockID{0, 3, 1, 2, 4} // LBNs 50, 60, 90, 10, 30
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CSCAN order %v, want %v", got, want)
		}
	}
}

func TestCSCANTieBreaksByArrival(t *testing.T) {
	dr := NewDrive(unitModel{}, CSCAN)
	dr.Enqueue(&Request{Block: 9, LBN: 5}, 0)
	dr.Enqueue(&Request{Block: 1, LBN: 7}, 0)
	dr.Enqueue(&Request{Block: 2, LBN: 7}, 0)
	got := drain(dr)
	want := []layout.BlockID{9, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestEveryRequestServedOnce(t *testing.T) {
	for _, disc := range []Discipline{FCFS, CSCAN} {
		dr := NewDrive(unitModel{}, disc)
		seen := map[layout.BlockID]int{}
		n := 200
		now := 0.0
		for i := 0; i < n; i++ {
			dr.Enqueue(&Request{Block: layout.BlockID(i), LBN: int64((i * 37) % 100)}, now)
			if i%3 == 0 && dr.Busy() {
				now = dr.BusyEnd()
				seen[dr.Complete(now).Block]++
			}
		}
		for dr.Busy() {
			now = dr.BusyEnd()
			seen[dr.Complete(now).Block]++
		}
		if len(seen) != n {
			t.Fatalf("%v: served %d distinct requests, want %d", disc, len(seen), n)
		}
		for b, c := range seen {
			if c != 1 {
				t.Fatalf("%v: request %d served %d times", disc, b, c)
			}
		}
		if dr.Completed() != int64(n) {
			t.Fatalf("%v: Completed() = %d, want %d", disc, dr.Completed(), n)
		}
	}
}

func TestDriveStats(t *testing.T) {
	dr := NewDrive(unitModel{}, FCFS)
	dr.Enqueue(&Request{Block: 0, LBN: 0}, 0)
	dr.Enqueue(&Request{Block: 1, LBN: 1}, 0)
	if dr.Outstanding() != 2 || !dr.Busy() {
		t.Fatalf("outstanding=%d busy=%v", dr.Outstanding(), dr.Busy())
	}
	drain(dr)
	if dr.BusyTime() != 2.0 {
		t.Errorf("busy time %g, want 2", dr.BusyTime())
	}
	if dr.MeanServiceMs() != 1.0 {
		t.Errorf("mean service %g, want 1", dr.MeanServiceMs())
	}
	if dr.MeanResponseMs() != 1.5 {
		t.Errorf("mean response %g, want 1.5", dr.MeanResponseMs())
	}
	if dr.Busy() || dr.Outstanding() != 0 || dr.Completed() != 2 {
		t.Errorf("drained drive: busy=%v outstanding=%d completed=%d", dr.Busy(), dr.Outstanding(), dr.Completed())
	}
}

// TestDriveCycleAllocatesNothing: once its queue has grown, a drive
// over the paper's model queues, schedules, services and completes
// requests without allocating, under either discipline. The 64-deep
// cycle's first request, at the middle of its LBNs, starts at once and
// leaves half the rest behind the head, so every CSCAN cycle wraps.
func TestDriveCycleAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		depth int
		lbn   func(i int) int64
	}{
		{16, func(i int) int64 { return int64((i * 7919) % 50000) }},
		{64, func(i int) int64 { return int64((32+i*37)%64) * 500 }},
	} {
		for _, disc := range []Discipline{CSCAN, FCFS} {
			dr := NewDrive(NewHP97560(), disc)
			reqs := make([]Request, tc.depth)
			now := 0.0
			cycles, wraps := 0, 0
			cycle := func() {
				cycles++
				for i := range reqs {
					reqs[i] = Request{Block: layout.BlockID(i), LBN: tc.lbn(i)}
					dr.Enqueue(&reqs[i], now)
				}
				if len(dr.behind) > 0 {
					wraps++
				}
				for dr.Busy() {
					now = dr.BusyEnd()
					dr.Complete(now)
				}
			}
			if n := testing.AllocsPerRun(50, cycle); n != 0 {
				t.Errorf("%v: an Enqueue/Complete cycle of %d requests made %v allocations", disc, tc.depth, n)
			}
			if disc == CSCAN && tc.depth == 64 && wraps != cycles {
				t.Errorf("CSCAN: %d of %d cycles of %d requests wrapped", wraps, cycles, tc.depth)
			}
		}
	}
}

// TestDrivePickMatchesSpec drives random interleaved Enqueue/Complete
// schedules under both disciplines and holds the order requests enter
// service to spec.DrivePick's scan over the same queue. LBNs come from a
// small range, so they repeat, meet the head's LBN and wrap often.
func TestDrivePickMatchesSpec(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		disc := []Discipline{CSCAN, FCFS}[trial%2]
		span := int64(1 + rng.Intn(24))
		pEnq := 0.2 + 0.7*rng.Float64() // queues from near-empty to deep
		dr := NewDrive(unitModel{}, disc)
		var got []int64
		dr.OnStart = func(r *Request, _ Breakdown, _ float64) { got = append(got, int64(r.Block)) }

		// The spec's mirror of the drive: its queue, head and busy state.
		var q []spec.Queued
		var want []int64
		head, busy := int64(0), false
		start := func() {
			if busy = len(q) > 0; busy {
				i := spec.DrivePick(q, head, disc == FCFS)
				head = q[i].LBN
				want = append(want, q[i].Seq)
				q = append(q[:i], q[i+1:]...)
			}
		}
		now := 0.0
		for step, seq := 0, int64(0); step < 300; step++ {
			if rng.Float64() < pEnq {
				lbn := rng.Int63n(span)
				dr.Enqueue(&Request{Block: layout.BlockID(seq), LBN: lbn}, now)
				q = append(q, spec.Queued{LBN: lbn, Seq: seq})
				seq++
				if !busy {
					start()
				}
			} else if dr.Busy() {
				now = dr.BusyEnd()
				dr.Complete(now)
				start()
			}
		}
		for dr.Busy() {
			now = dr.BusyEnd()
			dr.Complete(now)
			start()
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d, %v over LBNs [0, %d): service order\n%v\nwant\n%v", trial, disc, span, got, want)
		}
	}
}

func TestCompleteIdleReturnsNil(t *testing.T) {
	dr := NewDrive(unitModel{}, FCFS)
	if dr.Complete(0) != nil {
		t.Error("completing an idle drive should return nil")
	}
}

func TestDisciplineString(t *testing.T) {
	if CSCAN.String() != "CSCAN" || FCFS.String() != "FCFS" {
		t.Error("discipline names wrong")
	}
	if Discipline(9).String() == "" {
		t.Error("unknown discipline should still render")
	}
}

func TestRequestServiceMsRecorded(t *testing.T) {
	dr := NewDrive(unitModel{}, FCFS)
	dr.Enqueue(&Request{Block: 0, LBN: 0}, 0)
	r := dr.Complete(dr.BusyEnd())
	if r.ServiceMs != 1.0 {
		t.Errorf("ServiceMs = %g, want 1", r.ServiceMs)
	}
}
