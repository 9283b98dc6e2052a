package policy

import (
	"fmt"
	"testing"

	"ppcsim/internal/engine"
	"ppcsim/internal/trace/tracetest"
)

// pollCounter counts a forestall run's polls.
type pollCounter struct {
	*Forestall
	polls int64
}

func (p *pollCounter) Poll() {
	p.polls++
	p.Forestall.Poll()
}

// BenchmarkForestallPoll times whole forestall runs on synth and reports
// them per poll as well as per reference. ns/poll divides the run's wall
// time by its polls, so it includes the engine's share; that share is
// the same for every forestall variant, so a change to the forecast
// shows up in full.
func BenchmarkForestallPoll(b *testing.B) {
	tr := tracetest.Bundled(b, "synth")
	for _, disks := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("%dd", disks), func(b *testing.B) {
			b.ReportAllocs()
			var polls int64
			for i := 0; i < b.N; i++ {
				p := &pollCounter{Forestall: NewForestall()}
				if _, err := engine.Run(engine.Config{Trace: tr, Policy: p, Disks: disks}); err != nil {
					b.Fatal(err)
				}
				polls += p.polls
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(polls), "ns/poll")
			b.ReportMetric(float64(len(tr.Refs))*float64(b.N)/b.Elapsed().Seconds(), "refs/s")
		})
	}
}
