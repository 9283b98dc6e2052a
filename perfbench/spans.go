package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share the request's client span as their root.
type span struct {
	Name   string
	ID     int64
	Parent int64 // 0 for a root
	Track  string
	Start  time.Time
	End    time.Time
}

// spanLog keeps a traced run's spans in memory until the run ends. A nil
// *spanLog records nothing, so untraced code paths pay one nil check.
type spanLog struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span //ppcvet:guardedby mu
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// newID reserves a span ID, so children can name a parent that has not
// ended yet.
func (l *spanLog) newID() int64 {
	if l == nil {
		return 0
	}
	return l.nextID.Add(1)
}

// add records a finished span under a reserved ID.
func (l *spanLog) add(id, parent int64, name, track string, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{Name: name, ID: id, Parent: parent, Track: track, Start: start, End: end})
	l.mu.Unlock()
}

// adoptByContainment gives each parentless span named child a parent:
// of the spans named parent on the same track that enclose it, the one
// that ends first. A worker's simulation runs on its pool goroutine with
// no request context, so time containment on the worker's track is the
// only link. Requests queued behind a simulation may enclose it too, but
// each request's span ends just after its own simulation, so the owner
// ends first.
func (l *spanLog) adoptByContainment(child, parent string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	byTrack := map[string][]int{}
	for i, s := range l.spans {
		if s.Name == parent {
			byTrack[s.Track] = append(byTrack[s.Track], i)
		}
	}
	for i := range l.spans {
		c := &l.spans[i]
		if c.Name != child || c.Parent != 0 {
			continue
		}
		var owner *span
		for _, j := range byTrack[c.Track] {
			p := &l.spans[j]
			if !p.Start.After(c.Start) && !p.End.Before(c.End) && (owner == nil || p.End.Before(owner.End)) {
				owner = p
			}
		}
		if owner != nil {
			c.Parent = owner.ID
		}
	}
}

// snapshot returns a copy of the spans recorded so far.
func (l *spanLog) snapshot() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// write saves the spans as a Chrome trace-event file (chrome://tracing,
// Perfetto): one complete event per span, one thread per track, with
// each span's id and parent in its args.
func (l *spanLog) write(path string) error {
	spans := l.snapshot()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	tids := map[string]int{}
	var events []event
	for _, s := range spans {
		tid, ok := tids[s.Track]
		if !ok {
			tid = len(tids) + 1
			tids[s.Track] = tid
			events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid, Args: map[string]any{"name": s.Track}})
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: tid,
			Ts:   float64(s.Start.Sub(l.t0).Nanoseconds()) / 1e3,
			Dur:  float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
