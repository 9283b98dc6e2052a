package serve

import (
	"fmt"
	"sync"
)

// flightGroup deduplicates concurrent work by key: the first caller of a
// key (the leader) runs fn; callers arriving while that run is in flight
// block and share the leader's outcome, including errors — a follower of
// a leader that hit a full queue shares the 429 rather than adding load.
// The entry is removed once fn returns, so a later request with the same
// key starts fresh (the result cache, not the flight group, serves
// repeats).
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight //ppcvet:guardedby mu
}

type flight struct {
	done chan struct{}
	val  []byte
	err  error
}

// do returns fn's result for key, running fn at most once per in-flight
// key. shared reports whether this caller joined an existing flight. A
// panic in fn finishes the flight with an error, which the leader and
// every follower return, so the key is never left wedged.
func (g *flightGroup) do(key string, fn func() ([]byte, error)) (val []byte, err error, shared bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flight)
	}
	if f, ok := g.m[key]; ok {
		g.mu.Unlock()
		<-f.done
		return f.val, f.err, true
	}
	f := &flight{done: make(chan struct{})}
	g.m[key] = f
	g.mu.Unlock()

	defer func() {
		if p := recover(); p != nil {
			f.val, f.err = nil, fmt.Errorf("serve: panic: %v", p)
		}
		close(f.done)
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		val, err = f.val, f.err
	}()
	f.val, f.err = fn()
	return f.val, f.err, false
}
