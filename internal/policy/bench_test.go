package policy

import (
	"fmt"
	"testing"

	"ppcsim/internal/engine"
	"ppcsim/internal/trace/tracetest"
)

// pollCounter counts a run's polls.
type pollCounter struct {
	engine.Policy
	polls int64
}

func (p *pollCounter) Poll() {
	p.polls++
	p.Policy.Poll()
}

// benchmarkPolls times whole runs of the policies newPolicy returns on
// synth at 1, 4 and 16 disks, and reports them per poll as well as per
// reference. ns/poll divides the run's wall time by its polls, so it
// includes the engine's share; that share is the same for every variant
// of one policy, so a change to the policy shows up in full.
func benchmarkPolls(b *testing.B, newPolicy func() engine.Policy) {
	tr := tracetest.Bundled(b, "synth")
	for _, disks := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("%dd", disks), func(b *testing.B) {
			b.ReportAllocs()
			var polls int64
			for i := 0; i < b.N; i++ {
				p := &pollCounter{Policy: newPolicy()}
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

// BenchmarkForestallPoll times forestall's stall forecast.
func BenchmarkForestallPoll(b *testing.B) {
	benchmarkPolls(b, func() engine.Policy { return NewForestall() })
}

// BenchmarkAggressivePoll times aggressive's batch loop.
func BenchmarkAggressivePoll(b *testing.B) {
	benchmarkPolls(b, func() engine.Policy { return NewAggressive(0) })
}
