package serve

import (
	"strings"
	"testing"
	"time"
)

// TestFlightPanicFinishesFlight: a panicking leader finishes its flight
// with an error that the leader and a waiting follower both return, and
// a later call with the same key runs afresh.
func TestFlightPanicFinishesFlight(t *testing.T) {
	var g flightGroup
	entered, release := make(chan struct{}), make(chan struct{})
	type outcome struct {
		err    error
		shared bool
	}
	leader, follower := make(chan outcome, 1), make(chan outcome, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				t.Errorf("the leader's panic escaped do: %v", p)
				leader <- outcome{}
			}
		}()
		_, err, shared := g.do("k", func() ([]byte, error) {
			close(entered)
			<-release
			panic("boom")
		})
		leader <- outcome{err, shared}
	}()
	<-entered
	go func() {
		_, err, shared := g.do("k", func() ([]byte, error) { return nil, nil })
		follower <- outcome{err, shared}
	}()
	time.Sleep(50 * time.Millisecond) // let the follower join the flight
	close(release)

	for _, w := range []struct {
		name   string
		c      chan outcome
		shared bool
	}{{"leader", leader, false}, {"follower", follower, true}} {
		select {
		case o := <-w.c:
			if o.err == nil || !strings.Contains(o.err.Error(), "boom") || o.shared != w.shared {
				t.Errorf("%s: err %v, shared %v; want the panic as an error, shared %v", w.name, o.err, o.shared, w.shared)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s still blocked after the leader panicked", w.name)
		}
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		val, err, shared := g.do("k", func() ([]byte, error) { return []byte("fresh"), nil })
		if string(val) != "fresh" || err != nil || shared {
			t.Errorf("later call: %q %v shared %v, want a fresh run", val, err, shared)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a later call with the panicked key blocked")
	}
}
