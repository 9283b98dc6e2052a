package disk

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkDriveQueue times one request through a drive whose queue
// holds depth requests in steady state: each op completes the request in
// service, which starts the next one the discipline picks, and enqueues
// a request at a random LBN in its place. The model serves every
// request in 1 ms, so the queue is all that is timed.
func BenchmarkDriveQueue(b *testing.B) {
	for _, disc := range []Discipline{CSCAN, FCFS} {
		for _, depth := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("%v/depth=%d", disc, depth), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				lbns := make([]int64, 4096)
				for i := range lbns {
					lbns[i] = rng.Int63n(160000)
				}
				dr := NewDrive(unitModel{}, disc)
				reqs := make([]Request, depth)
				for i := range reqs {
					reqs[i].LBN = lbns[i]
					dr.Enqueue(&reqs[i], 0)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					now := dr.BusyEnd()
					r := dr.Complete(now)
					r.LBN = lbns[i&(len(lbns)-1)]
					dr.Enqueue(r, now)
				}
			})
		}
	}
}

// BenchmarkServicePositioning times the paper's drive model on a stream
// in which every third request moves to a random block and the others
// continue sequentially, so a third of the calls seek and work out the
// platter's angle. The clock starts 100 s into a run.
func BenchmarkServicePositioning(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	lbns := make([]int64, 4096)
	for i := range lbns {
		if i%3 == 0 {
			lbns[i] = rng.Int63n(160000)
		} else {
			lbns[i] = lbns[i-1] + 1
		}
	}
	m := NewHP97560()
	now := 1e5
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += m.Service(lbns[i&(len(lbns)-1)], now)
	}
}
